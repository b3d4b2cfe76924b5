package discover

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzSketchOps drives a pair of sketches through a fuzzer-chosen op
// sequence — updates with arbitrary float bit patterns (NaN/Inf/subnormal
// included), gob round-trips — and checks the public invariants:
// Corr is always finite in [−1, 1] with a lag inside the window,
// EffSamples stays finite and non-negative, and a decode of an encode
// reproduces the estimate bit for bit. The input's first two bytes pick
// the lag window and decay so the window edges (L=0, L=max) get explored.
func FuzzSketchOps(f *testing.F) {
	// Seeds: plain stream, NaN/Inf mix, zero variance, max lag window,
	// update-heavy, decode-heavy.
	f.Add([]byte{0, 200, 1, 0x40, 0x09, 0, 0, 0, 0, 0, 0, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 128, 1, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{2, 255, 1, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 1, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{8, 250, 2, 3})
	f.Add([]byte{1, 240, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 2, 3, 2})
	f.Add([]byte{3, 100, 3, 3, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		lags := int(data[0] % 9)              // 0..8, both window edges
		decay := 0.5 + float64(data[1])/512.0 // (0.5, 1.0)
		if data[1] == 255 {
			decay = 1 // exact no-forgetting edge
		}
		a := NewSketch(lags, decay)
		b := NewSketch(lags, decay)
		data = data[2:]

		readF64 := func() (float64, bool) {
			if len(data) < 8 {
				return 0, false
			}
			v := math.Float64frombits(binary.BigEndian.Uint64(data[:8]))
			data = data[8:]
			return v, true
		}
		check := func(s *Sketch) {
			r, lag := s.Corr()
			if math.IsNaN(r) || r < -1 || r > 1 {
				t.Fatalf("Corr r = %g out of [-1,1]", r)
			}
			if lag < -lags || lag > lags {
				t.Fatalf("Corr lag = %d outside window %d", lag, lags)
			}
			if w := s.EffSamples(); math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				t.Fatalf("EffSamples = %g", w)
			}
		}

		steps := 0
		for len(data) > 0 && steps < 4096 {
			steps++
			op := data[0]
			data = data[1:]
			switch op % 3 {
			case 0, 1: // update a or b
				x, ok1 := readF64()
				y, ok2 := readF64()
				if !ok1 {
					x = math.NaN()
				}
				if !ok2 {
					y = x
				}
				if op%3 == 0 {
					a.Update(x, y)
				} else {
					b.Update(x, y)
				}
			case 2: // gob round-trip a, then continue on the copy
				blob, err := a.GobEncode()
				if err != nil {
					t.Fatalf("encode: %v", err)
				}
				var c Sketch
				if err := c.GobDecode(blob); err != nil {
					t.Fatalf("decode of own encode: %v", err)
				}
				r1, l1 := a.Corr()
				r2, l2 := c.Corr()
				if math.Float64bits(r1) != math.Float64bits(r2) || l1 != l2 {
					t.Fatalf("round-trip Corr (%g,%d) != (%g,%d)", r2, l2, r1, l1)
				}
				if c.EffSamples() != a.EffSamples() || c.Samples() != a.Samples() {
					t.Fatal("round-trip samples mismatch")
				}
				a = &c
			}
			check(a)
			check(b)
		}
	})
}
