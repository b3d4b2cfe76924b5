package mcorr_test

import (
	"testing"

	"mcorr"
)

// TestParsePairBudget pins the -pair-budget grammar at the edges of the
// percentage form: only a number in (0, 100] is a percentage, so NaN in any
// spelling, infinities, zero of either sign and anything above 100 fail,
// while a percentage that rounds to less than one pair still keeps one.
func TestParsePairBudget(t *testing.T) {
	const l = 48 // 1128 candidate pairs
	for _, tc := range []struct {
		in      string
		want    int
		wantErr bool
	}{
		{in: "", want: 0},
		{in: "full", want: 0},
		{in: "FULL", want: 0},
		{in: "25%", want: 282},
		{in: " 50 %", want: 564},
		{in: "100%", want: 1128},
		{in: "1e-300%", want: 1},
		{in: "7", want: 7},
		{in: "0", want: 0},
		{in: "NaN%", wantErr: true},
		{in: "nan%", wantErr: true},
		{in: "+Inf%", wantErr: true},
		{in: "-Inf%", wantErr: true},
		{in: "-0%", wantErr: true},
		{in: "0%", wantErr: true},
		{in: "100.0000001%", wantErr: true},
		{in: "-1", wantErr: true},
		{in: "%", wantErr: true},
		{in: "half", wantErr: true},
	} {
		got, err := mcorr.ParsePairBudget(tc.in, l)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParsePairBudget(%q) = %d, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParsePairBudget(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}
