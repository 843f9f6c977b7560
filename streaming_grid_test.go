// The shards×lanes parity grid: the generation shard count and the
// serve lane count are both pure throughput knobs — the served WMS log
// must be byte-identical (same md5) at every combination, including
// through the fused ShardedStream dispatcher intake that skips the
// event-at-a-time merge. This is the acceptance test for the ring-seam
// generation front half.
package repro

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/gismo"
	"repro/internal/simulate"
	"repro/internal/wmslog"
)

// gridModel is the 110k-transfer bench fixture (benchStreamModel's
// shape, reachable from a *testing.T).
func gridModel(t *testing.T) gismo.Model {
	t.Helper()
	m, err := gismo.Scaled(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.BaseArrivalRate *= 60
	return m
}

// gridServeDigest is the md5 of the text WMS log that RunStream serves
// for gridModel at benchSeed from a single-shard stream. It pins the
// realization itself, not just parity between paths: a change that
// moves every serve path together (a sampler, the RNG, the encoder)
// fails here. Re-record it only with a named, explained diff.
const gridServeDigest = "e7754bdb787e60b21aba52327970b9d6"

// gridServe runs one serve over a fresh shards-way stream of m at
// benchSeed and returns the md5 of the text log plus the run summary.
func gridServe(t *testing.T, m gismo.Model, shards int, run func(ws *gismo.WorkloadStream, sinks simulate.StreamSinks) (*simulate.StreamResult, error)) (string, *simulate.StreamResult) {
	t.Helper()
	ws, err := gismo.NewStream(m, benchSeed, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	h := md5.New()
	lw := wmslog.NewWriter(h)
	res, err := run(ws, simulate.StreamSinks{Entry: lw.Write})
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), res
}

// TestGridServeGoldenDigest checks the sequential path and the sharded
// path at several lane counts against the committed digest.
func TestGridServeGoldenDigest(t *testing.T) {
	m := gridModel(t)
	cfg := simulate.DefaultConfig()
	sum, _ := gridServe(t, m, 1, func(ws *gismo.WorkloadStream, sinks simulate.StreamSinks) (*simulate.StreamResult, error) {
		return simulate.RunStream(ws, ws.Population(), m.Horizon, cfg, benchSeed, sinks)
	})
	if sum != gridServeDigest {
		t.Errorf("RunStream: served log md5 %s, want %s", sum, gridServeDigest)
	}
	for _, lanes := range []int{1, 3, 8} {
		sum, _ := gridServe(t, m, 1, func(ws *gismo.WorkloadStream, sinks simulate.StreamSinks) (*simulate.StreamResult, error) {
			return simulate.RunStreamSharded(ws, ws.Population(), m.Horizon, cfg, benchSeed, lanes, sinks)
		})
		if sum != gridServeDigest {
			t.Errorf("RunStreamSharded lanes=%d: served log md5 %s, want %s", lanes, sum, gridServeDigest)
		}
	}
}

func TestStreamShardLaneGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full shards×lanes md5 parity grid")
	}
	m := gridModel(t)
	cfg := simulate.DefaultConfig()
	baseSum, baseRes := gridServe(t, m, 1, func(ws *gismo.WorkloadStream, sinks simulate.StreamSinks) (*simulate.StreamResult, error) {
		return simulate.RunStream(ws, ws.Population(), m.Horizon, cfg, benchSeed, sinks)
	})
	if baseRes.Transfers < 100_000 {
		t.Fatalf("fixture too small for the grid to mean anything: %d transfers", baseRes.Transfers)
	}

	for _, shards := range []int{1, 2, 4, 8} {
		for _, lanes := range []int{1, 2, 4, 8} {
			key := fmt.Sprintf("shards=%d/lanes=%d", shards, lanes)
			lanes := lanes
			sum, res := gridServe(t, m, shards, func(ws *gismo.WorkloadStream, sinks simulate.StreamSinks) (*simulate.StreamResult, error) {
				return simulate.RunStreamSharded(ws, ws.Population(), m.Horizon, cfg, benchSeed, lanes, sinks)
			})
			if sum != baseSum {
				t.Errorf("%s: served log md5 differs from sequential", key)
			}
			if *res != *baseRes {
				t.Errorf("%s: result %+v differs from sequential %+v", key, *res, *baseRes)
			}
		}
	}
}
