package main

import "testing"

// TestValidateFlags: a -scale outside tpsim's 0..64 or fewer than one guest
// is rejected before anything is built.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		scale, vms int
		ok         bool
	}{
		{0, 4, true},
		{64, 1, true},
		{-4, 4, false},
		{65, 4, false},
		{0, 0, false},
		{0, -1, false},
	} {
		if err := validate(tc.scale, tc.vms); (err == nil) != tc.ok {
			t.Errorf("validate(-scale %d, -vms %d) = %v, want ok=%v", tc.scale, tc.vms, err, tc.ok)
		}
	}
}
