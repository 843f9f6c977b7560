package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// goldenCharacterization is the SHA-256 of the Figure 9 sweep, the
// client and transfer Figure 8 ACFs (as IEEE-754 bit patterns) and the
// client and transfer c(t) marginals of the scale-150, 7-day, seed-7
// realization shared by the core tests. It was recorded with the
// straightforward kernels (one Sessionize per timeout, per-lag mean and
// variance, sort-based ECDF), so any faster kernel must reproduce their
// output bit for bit.
const goldenCharacterization = "286a06cd0366a546d843e5b2fa1f8a15a0af5cdd2fbd98e8907b2b9e42629500"

func TestCharacterizationGolden(t *testing.T) {
	c := getReport(t).Char
	h := sha256.New()
	putInt := func(h hash.Hash, v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	putFloats := func(h hash.Hash, xs []float64) {
		putInt(h, int64(len(xs)))
		for _, x := range xs {
			putInt(h, int64(math.Float64bits(x)))
		}
	}
	putInt(h, int64(len(c.Sweep)))
	for _, p := range c.Sweep {
		putInt(h, p.Timeout)
		putInt(h, int64(p.Sessions))
	}
	putFloats(h, c.Client.Concurrency.ACF)
	putFloats(h, c.Transfer.Concurrency.ACF)
	putFloats(h, c.Client.Concurrency.Marginal.Values())
	putFloats(h, c.Transfer.Concurrency.Marginal.Values())
	if len(c.Client.Concurrency.ACF) < 2 || len(c.Transfer.Concurrency.ACF) < 2 {
		t.Fatal("fixture too short for a Figure 8 ACF")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenCharacterization {
		t.Errorf("characterization digest = %s, want %s", got, goldenCharacterization)
	}
}
