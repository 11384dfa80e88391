package sim

import (
	"strings"
	"testing"
)

func TestParseKernel(t *testing.T) {
	cases := []struct {
		in   string
		want KernelKind
		ok   bool
	}{
		{"event", KernelEvent, true},
		{"tick", KernelTick, true},
		{"sharded", 0, false}, // removed: no longer a kernel
		{"parallel", 0, false},
		{"", 0, false},
		{"Event", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseKernel(tc.in)
		if !tc.ok {
			if err == nil {
				t.Errorf("ParseKernel(%q) = %v, want an error", tc.in, got)
				continue
			}
			if !strings.HasSuffix(err.Error(), `(valid kinds: "event", "tick")`) {
				t.Errorf("ParseKernel(%q) error %q does not list exactly the valid kinds", tc.in, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
}
