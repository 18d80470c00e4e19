package main

import (
	"crypto/sha256"
	"slices"
	"testing"

	"spinal/link"
	"spinal/transport"
)

// opTrace is what one operation fed the program and what it spent.
type opTrace struct {
	index       int
	payload     [32]byte
	channelSeed int64
	symbols     int
	rounds      int
}

func miceTrace(t *testing.T, seed int64, ops int) []opTrace {
	w, err := newMice(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	m := w.(*mice)
	var got []opTrace
	m.log = func(op *miceOp, r *link.Result) {
		got = append(got, opTrace{op.index, sha256.Sum256(op.payload), op.channelSeed, r.Stats.SymbolsSent, m.rounds - op.sentRound})
	}
	if _, err := m.measure(opsBudget(ops), nil); err != nil {
		t.Fatal(err)
	}
	return got
}

func fetchTrace(t *testing.T, seed int64, ops int) []opTrace {
	w, err := newBulkFetch(seed)
	if err != nil {
		t.Fatal(err)
	}
	f := w.(*bulkFetch)
	var got []opTrace
	f.log = func(index int, payload []byte, channelSeed int64, res *transport.Result) {
		got = append(got, opTrace{index, sha256.Sum256(payload), channelSeed, res.SymbolsSent, res.Steps})
	}
	if _, err := f.measure(opsBudget(ops), nil); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSeedDeterminism runs mice and bulk-fetch twice on one seed and once
// on another: the same seed must give the same payloads, channel seeds,
// symbols and rounds per operation, and a different seed different ones.
func TestSeedDeterminism(t *testing.T) {
	for name, trace := range map[string]func(*testing.T, int64) []opTrace{
		"mice":       func(t *testing.T, seed int64) []opTrace { return miceTrace(t, seed, 3*miceCallers) },
		"bulk-fetch": func(t *testing.T, seed int64) []opTrace { return fetchTrace(t, seed, 2) },
	} {
		a, b, c := trace(t, 1), trace(t, 1), trace(t, 2)
		if len(a) == 0 || !slices.Equal(a, b) {
			t.Errorf("%s: seed 1 twice gave different operations:\n%v\n%v", name, a, b)
		}
		for i := range min(len(a), len(c)) {
			if a[i].payload == c[i].payload || a[i].channelSeed == c[i].channelSeed {
				t.Errorf("%s: op %d has the same inputs under seeds 1 and 2", name, a[i].index)
			}
		}
	}
}
