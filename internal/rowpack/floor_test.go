package rowpack

import (
	"math/rand"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bitmat"
)

// floorInstances are the benchgen families (random, known-optimal, gap)
// plus seeded random matrices of mixed shape and density.
func floorInstances() []*bitmat.Matrix {
	var ins []benchgen.Instance
	ins = append(ins, benchgen.RandomSuite(11, 10, 10, benchgen.PaperOccupanciesSmall(), 2)...)
	ins = append(ins, benchgen.RandomSuite(12, 10, 30, []float64{0.3, 0.6}, 2)...)
	ins = append(ins, benchgen.OptSuite(13, 10, 10, 10, 2)...)
	ins = append(ins, benchgen.GapSuite(14, 10, 10, []int{2, 3, 4, 5}, 3)...)
	var out []*bitmat.Matrix
	for _, in := range ins {
		out = append(out, in.M)
	}
	rng := rand.New(rand.NewSource(15))
	for range 40 {
		out = append(out, bitmat.Random(rng, 1+rng.Intn(12), 1+rng.Intn(12), rng.Float64()))
	}
	return out
}

// With the rank as floor, PackTo returns exactly Pack's partition, and it
// stops early whenever Pack's depth meets the rank.
func TestPackToRankFloorIdentity(t *testing.T) {
	opts := Options{Trials: 20, Seed: 3}
	var tight, loose int
	for _, m := range floorInstances() {
		want, fullRuns := PackTo(m, opts, 0) // Pack's partition and run count
		got, runs := PackTo(m, opts, m.Rank())
		if got.String() != want.String() {
			t.Fatalf("floor changed the partition on\n%s\nwant %sgot %s", m, want, got)
		}
		switch {
		case m.Ones() == 0:
			// Floor 0 already stops a zero matrix at its empty trivial seed.
		case want.Depth() == m.Rank():
			tight++
			if runs >= fullRuns {
				t.Fatalf("rank-tight pack ran %d of %d trials, want fewer, on\n%s", runs, fullRuns, m)
			}
		default:
			loose++
			if runs != fullRuns {
				t.Fatalf("pack above rank ran %d of %d trials, want all, on\n%s", runs, fullRuns, m)
			}
		}
	}
	if tight == 0 || loose == 0 {
		t.Fatalf("instances cover %d rank-tight and %d above-rank packs; want both", tight, loose)
	}
}

func TestPackToTrivialSeedMeetsFloor(t *testing.T) {
	// A single row is its own trivial partition at rank 1: no trial runs.
	m := bitmat.MustParse("0110")
	p, runs := PackTo(m, DefaultOptions(), m.Rank())
	if p.Depth() != 1 || runs != 0 {
		t.Fatalf("depth=%d runs=%d, want 1 and 0", p.Depth(), runs)
	}
}

// FuzzPackFloor: for any small matrix and packing options, packing with the
// rank as floor yields the partition packing without it does.
func FuzzPackFloor(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(5), uint8(0), []byte("\x2d\xf1\x07\x9a"))
	f.Add(int64(7), uint8(4), uint8(6), uint8(3), []byte("\xff\x00\x0f"))
	f.Add(int64(2), uint8(6), uint8(3), uint8(12), []byte("\x55\xaa\x55"))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, flags uint8, bits []byte) {
		r, c := int(rows%8)+1, int(cols%8)+1
		m := bitmat.New(r, c)
		for idx := 0; idx < r*c && idx/8 < len(bits); idx++ {
			if bits[idx/8]>>(idx%8)&1 == 1 {
				m.Set(idx/c, idx%c, true)
			}
		}
		opts := Options{
			Trials:             1 + int(flags%4),
			Seed:               seed,
			Order:              Order(flags / 4 % 3),
			DisableBasisUpdate: flags&16 != 0,
			UseDLX:             flags&32 != 0,
			SkipTranspose:      flags&64 != 0,
		}
		want := Pack(m, opts)
		got, _ := PackTo(m, opts, m.Rank())
		if got.String() != want.String() {
			t.Fatalf("floor changed the partition on\n%s\nwant %sgot %s", m, want, got)
		}
	})
}
