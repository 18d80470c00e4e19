package hw

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestNewQuantizerSizing(t *testing.T) {
	cases := []struct {
		maxDim2 float64
		nsyms   int
		ok      bool
		cap     int32
	}{
		{10, 130, true, DimCapMax},
		{10, 0, true, DimCapMax},
		{0, 0, true, DimCapMax},
		{10, accumBudget / (2 * DimCapMax) * 4, true, DimCapMax / 4},
		{10, accumBudget / (2 * DimCapMin) * 2, false, 0}, // cap would fall below DimCapMin
		{math.Inf(1), 10, false, 0},
		{math.NaN(), 10, false, 0},
		{10, -1, false, 0},
	}
	for _, c := range cases {
		q, ok := NewQuantizer(c.maxDim2, c.nsyms)
		if ok != c.ok {
			t.Fatalf("NewQuantizer(%v, %d): ok = %v, want %v", c.maxDim2, c.nsyms, ok, c.ok)
		}
		if ok && q.Cap() != c.cap {
			t.Fatalf("NewQuantizer(%v, %d): cap = %d, want %d", c.maxDim2, c.nsyms, q.Cap(), c.cap)
		}
	}
	// The overflow invariant the hot loop relies on: a full accumulation
	// cannot exceed the budget.
	q, ok := NewQuantizer(5, 1<<16)
	if !ok {
		t.Fatal("quantizer for 2^16 symbols should exist")
	}
	if int64(1<<16)*2*int64(q.Cap()) > accumBudget {
		t.Fatalf("cap %d breaks the accumulation budget", q.Cap())
	}
}

func TestQuantizeRoundTripAndSaturation(t *testing.T) {
	const maxDim2 = 20.0
	q, ok := NewQuantizer(maxDim2, 130)
	if !ok {
		t.Fatal("NewQuantizer failed")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := rng.Float64() * maxDim2
		c := q.Quantize(v)
		if c < 0 || c > q.Cap() {
			t.Fatalf("Quantize(%v) = %d outside [0, %d]", v, c, q.Cap())
		}
		if err := math.Abs(q.Dequantize(c) - v); err > q.Step()/2+1e-12 {
			t.Fatalf("round-trip error %v for %v exceeds half a step (%v)", err, v, q.Step()/2)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.MaxFloat64, 2 * maxDim2, maxDim2 * 1e10} {
		if c := q.Quantize(v); c != q.Cap() {
			t.Fatalf("Quantize(%v) = %d, want saturation at %d", v, c, q.Cap())
		}
	}
	if c := q.Quantize(math.Inf(-1)); c != 0 {
		t.Fatalf("Quantize(-Inf) = %d, want 0", c)
	}
	if c := q.Quantize(0); c != 0 {
		t.Fatalf("Quantize(0) = %d, want 0", c)
	}
}

// Cost ordering of well-separated values survives quantization: if two
// in-range costs differ by more than one step, their quantized order
// matches, and any saturated value ranks at least as high as any
// in-range one.
func TestQuantizeOrderPreserved(t *testing.T) {
	const maxDim2 = 12.5
	q, ok := NewQuantizer(maxDim2, 64)
	if !ok {
		t.Fatal("NewQuantizer failed")
	}
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 500)
	for i := range vals {
		if i%10 == 0 {
			vals[i] = maxDim2 * (1 + rng.Float64()*1e6) // saturating
		} else {
			vals[i] = rng.Float64() * maxDim2
		}
	}
	for i, a := range vals {
		for _, b := range vals[i+1:] {
			qa, qb := q.Quantize(a), q.Quantize(b)
			switch {
			case a < b && b-a > q.Step() && b < maxDim2:
				if qa >= qb {
					t.Fatalf("order lost: %v < %v but %d >= %d", a, b, qa, qb)
				}
			case b < a && a-b > q.Step() && a < maxDim2:
				if qb >= qa {
					t.Fatalf("order lost: %v < %v but %d >= %d", b, a, qb, qa)
				}
			}
		}
	}
}

func TestBuildDistTables(t *testing.T) {
	q, ok := NewQuantizer(25, 10)
	if !ok {
		t.Fatal("NewQuantizer failed")
	}
	x := []float64{-1.5, -0.5, 0.5, 1.5}
	dI := make([]int32, len(x))
	dQ := make([]int32, len(x))
	q.BuildDistTables(0.7, -2.0, x, dI, dQ)
	for v, xv := range x {
		wi := q.Quantize((0.7 - xv) * (0.7 - xv))
		wq := q.Quantize((-2.0 - xv) * (-2.0 - xv))
		if dI[v] != wi || dQ[v] != wq {
			t.Fatalf("entry %d: got (%d,%d), want (%d,%d)", v, dI[v], dQ[v], wi, wq)
		}
	}
	// Non-finite received values poison every entry to the cap.
	for _, y := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		q.BuildDistTables(y, y, x, dI, dQ)
		for v := range x {
			if dI[v] != q.Cap() || dQ[v] != q.Cap() {
				t.Fatalf("y=%v entry %d: got (%d,%d), want saturation", y, v, dI[v], dQ[v])
			}
		}
	}
}

func TestAccumulateCompact(t *testing.T) {
	const cbits = 3
	const L = 1 << cbits
	cmask := uint32(L - 1)
	rng := rand.New(rand.NewSource(3))
	dI := make([]int32, L)
	dQ := make([]int32, L)
	for i := range dI {
		dI[i] = rng.Int31n(1000)
		dQ[i] = rng.Int31n(1000)
	}
	type cand struct {
		cost     int32
		pre, org uint32
	}
	for _, tau := range []int32{math.MaxInt32, 1 << 19, 1000, 0} {
		n := 257
		cost := make([]int32, n)
		pre := make([]uint32, n)
		org := make([]uint32, n)
		words := make([]uint32, n)
		var want []cand
		for j := range cost {
			cost[j] = rng.Int31n(1 << 19)
			pre[j] = rng.Uint32()
			org[j] = uint32(j)
			words[j] = rng.Uint32()
			c := cost[j] + dI[words[j]&cmask] + dQ[words[j]>>cbits&cmask]
			if c < tau {
				want = append(want, cand{c, pre[j], org[j]})
			}
		}
		kept := AccumulateCompact(tau, cost, pre, org, words, dI, dQ, cmask, cbits)
		if kept != len(want) {
			t.Fatalf("tau=%d: kept %d, want %d", tau, kept, len(want))
		}
		for i, w := range want {
			got := cand{cost[i], pre[i], org[i]}
			if got != w {
				t.Fatalf("tau=%d survivor %d = %+v, want %+v (encounter order, aligned arrays)",
					tau, i, got, w)
			}
		}
	}
}

func TestCompactBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		cost := make([]int32, n)
		pre := make([]uint32, n)
		org := make([]uint32, n)
		type cand struct {
			cost     int32
			pre, org uint32
		}
		var want []cand
		tau := int32(500)
		for i := range cost {
			cost[i] = rng.Int31n(1000)
			pre[i] = rng.Uint32()
			org[i] = rng.Uint32()
			if cost[i] < tau {
				want = append(want, cand{cost[i], pre[i], org[i]})
			}
		}
		kept := CompactBelow(tau, cost, pre, org)
		if kept != len(want) {
			t.Fatalf("kept %d, want %d", kept, len(want))
		}
		for i, w := range want {
			got := cand{cost[i], pre[i], org[i]}
			if got != w {
				t.Fatalf("survivor %d = %+v, want %+v (encounter order, aligned arrays)", i, got, w)
			}
		}
	}
}

func TestSelectKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(500)
		k := 1 + rng.Intn(n)
		keys := make([]uint64, n)
		for i := range keys {
			// Heavily tied costs in the high word, unique origins below —
			// the decoder's packing.
			keys[i] = uint64(rng.Int31n(64))<<32 | uint64(i)
		}
		sorted := slices.Clone(keys)
		slices.Sort(sorted)
		pivot := SelectKeys(keys, k)
		if pivot != sorted[k-1] {
			t.Fatalf("pivot = %#x, want %#x (n=%d k=%d)", pivot, sorted[k-1], n, k)
		}
		prefix := slices.Clone(keys[:k])
		slices.Sort(prefix)
		if !slices.Equal(prefix, sorted[:k]) {
			t.Fatalf("prefix is not the k smallest keys (n=%d k=%d)", n, k)
		}
	}
}

// The selected set is a pure function of the key multiset — block
// boundaries and encounter order cannot change it, which is what makes
// the quantized decode deterministic.
func TestSelectKeysOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := make([]uint64, 300)
	for i := range base {
		base[i] = uint64(rng.Int31n(32))<<32 | uint64(i)
	}
	const k = 64
	ref := slices.Clone(base)
	SelectKeys(ref, k)
	want := slices.Clone(ref[:k])
	slices.Sort(want)
	for trial := 0; trial < 20; trial++ {
		shuf := slices.Clone(base)
		rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		SelectKeys(shuf, k)
		got := slices.Clone(shuf[:k])
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("selected set depends on encounter order (trial %d)", trial)
		}
	}
}

// selectShapes are the adversarial input orders the selection unit is
// checked against: presorted runs, organ pipes and every flavour of tie
// a median-of-three partition can stumble on. Each returns n keys.
var selectShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []uint64
}{
	{"random", func(rng *rand.Rand, n int) []uint64 { return decodeLikeKeys(rng, n, 16) }},
	{"ascending", func(_ *rand.Rand, n int) []uint64 {
		return fillKeys(n, func(i int) uint64 { return uint64(i)<<32 | uint64(i) })
	}},
	{"descending", func(_ *rand.Rand, n int) []uint64 {
		return fillKeys(n, func(i int) uint64 { return uint64(n-i)<<32 | uint64(i) })
	}},
	{"organ-pipe", func(_ *rand.Rand, n int) []uint64 {
		return fillKeys(n, func(i int) uint64 { return uint64(min(i, n-1-i))<<32 | uint64(i) })
	}},
	{"equal-costs", func(rng *rand.Rand, n int) []uint64 {
		// One cost, unique origins in shuffled order.
		keys := fillKeys(n, func(i int) uint64 { return 7<<32 | uint64(i) })
		rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		return keys
	}},
	{"duplicates", func(rng *rand.Rand, n int) []uint64 {
		// Exact duplicate keys drawn from a handful of values.
		return fillKeys(n, func(int) uint64 { return uint64(rng.Intn(5))<<32 | 3 })
	}},
	{"one-value", func(_ *rand.Rand, n int) []uint64 {
		return fillKeys(n, func(int) uint64 { return 42 })
	}},
	{"extremes", func(rng *rand.Rand, n int) []uint64 {
		// The top of the key range, where a duplicate sweep's pivot
		// can be the largest representable key.
		return fillKeys(n, func(int) uint64 { return math.MaxUint64 - uint64(rng.Intn(3)) })
	}},
}

func fillKeys(n int, f func(i int) uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = f(i)
	}
	return keys
}

// decodeLikeKeys generates one spine step's candidate pool the way the
// decoder packs it: parents in ascending cost order, each expanded into
// fan children that add a random branch cost, origins numbered in
// expansion order (so unique). Parent costs spread over about one
// step's branch-cost range, as they do in a settled beam.
func decodeLikeKeys(rng *rand.Rand, n, fan int) []uint64 {
	const branch = 1 << 16
	step := int64(2*branch/(n/fan+1)) + 1
	keys := make([]uint64, n)
	var parent int64
	for i := range keys {
		if i%fan == 0 {
			parent += rng.Int63n(step)
		}
		keys[i] = uint64(parent+rng.Int63n(branch))<<32 | uint64(i)
	}
	return keys
}

// checkSelect runs SelectKeys(keys, k) and compares it with a
// slices.Sort reference: the returned pivot is the k-th smallest and
// keys[:k] holds exactly the k smallest, as a multiset.
func checkSelect(t *testing.T, keys []uint64, k int) {
	t.Helper()
	want := slices.Clone(keys)
	slices.Sort(want)
	got := slices.Clone(keys)
	if pivot := SelectKeys(got, k); pivot != want[k-1] {
		t.Fatalf("n=%d k=%d: pivot %#x, want %#x", len(keys), k, pivot, want[k-1])
	}
	slices.Sort(got[:k])
	slices.Sort(got[k:])
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d k=%d: keys[:k] is not the k smallest, or keys is not a permutation", len(keys), k)
	}
}

func checkSort(t *testing.T, keys []uint64) {
	t.Helper()
	want := slices.Clone(keys)
	slices.Sort(want)
	got := slices.Clone(keys)
	SortKeys(got)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d: SortKeys differs from slices.Sort", len(keys))
	}
}

func TestSelectKeysAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Up to 1024 keys covers the B=256 pool of 2B + 256 candidates.
	sizes := []int{1, 2, 3, 15, 16, 17, 31, 32, 33, 100, 256, 511, 768, 1024}
	checkSort(t, nil)
	for _, sh := range selectShapes {
		t.Run(sh.name, func(t *testing.T) {
			for _, n := range sizes {
				keys := sh.gen(rng, n)
				for _, k := range []int{1, max(n/2, 1), n} {
					checkSelect(t, keys, k)
				}
				checkSort(t, keys)
			}
		})
	}
}

// Runs of equal keys must not make the partition quadratic. With 2^18
// copies of one value a quadratic partition needs ~3·10^10 swaps (tens
// of seconds); the duplicate sweep finishes in two linear passes.
func TestSelectKeysDuplicatesLinear(t *testing.T) {
	keys := fillKeys(1<<18, func(int) uint64 { return 5 })
	start := time.Now()
	allocs := testing.AllocsPerRun(1, func() {
		SelectKeys(keys, len(keys)/2)
		SortKeys(keys)
	})
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("select+sort of %d equal keys took %v: quadratic on duplicates", len(keys), el)
	}
	if allocs != 0 {
		t.Fatalf("SelectKeys/SortKeys allocate: %v allocs", allocs)
	}
}

// FuzzSelectKeys checks SelectKeys and SortKeys against the slices.Sort
// reference on arbitrary keys: data is read as little-endian uint64s
// (duplicates and extreme values included), and k is reduced into
// [1, len].
func FuzzSelectKeys(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, uint16(1))
	f.Add(make([]byte, 8*40), uint16(20))
	f.Add(bytes.Repeat([]byte{0xff}, 8*33), uint16(33))
	f.Fuzz(func(t *testing.T, data []byte, k uint16) {
		n := min(len(data)/8, 2048)
		if n == 0 {
			return
		}
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		checkSelect(t, keys, 1+int(k)%n)
		checkSort(t, keys)
	})
}

// selectInputs are the benchmark pools: distinct decode-like inputs
// cycled so the branch predictor cannot learn one input's comparisons.
func selectInputs(n, fan int) [][]uint64 {
	rng := rand.New(rand.NewSource(9))
	in := make([][]uint64, 64)
	for i := range in {
		in[i] = decodeLikeKeys(rng, n, fan)
	}
	return in
}

// BenchmarkSelectKeys measures the two selection shapes of a decode:
// 256→32 is the first block of a B=32, k=4 step (16 parents × 16
// children, no threshold yet to prune it); 768→256 is a B=256 pool at
// its 2B + block-size capacity. Each op includes copying the pool back
// in, as the decoder's append does.
func BenchmarkSelectKeys(b *testing.B) {
	for _, sh := range []struct {
		name string
		n, k int
	}{{"256to32", 256, 32}, {"768to256", 768, 256}} {
		b.Run(sh.name, func(b *testing.B) {
			in := selectInputs(sh.n, 16)
			keys := make([]uint64, sh.n)
			var sink uint64
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				copy(keys, in[i%len(in)])
				sink += SelectKeys(keys, sh.k)
			}
			benchSink = sink
			b.ReportMetric(float64(sh.n)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
		})
	}
}

// BenchmarkSortKeys measures the per-step survivor sort at B=32 and
// B=256 on selected (unordered) survivors, with slices.Sort on the
// same inputs as the reference SortKeys has to beat.
func BenchmarkSortKeys(b *testing.B) {
	for _, n := range []int{32, 256} {
		in := selectInputs(3*n, 16)
		for _, keys := range in {
			SelectKeys(keys, n)
		}
		for _, impl := range []struct {
			name string
			sort func([]uint64)
		}{{"hw", SortKeys}, {"slices", slices.Sort[[]uint64]}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, impl.name), func(b *testing.B) {
				keys := make([]uint64, n)
				b.ReportAllocs()
				for i := 0; b.Loop(); i++ {
					copy(keys, in[i%len(in)][:n])
					impl.sort(keys)
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
			})
		}
	}
}

// BenchmarkAccumulateCompact scores one stored symbol for a full
// 256-candidate block with C=6 tables: at tau=MaxInt32 (the step's
// first block, nothing pruned) and at a threshold that drops about
// half the block, where survival is least predictable.
func BenchmarkAccumulateCompact(b *testing.B) {
	const n, cbits = 256, 6
	const cmask = 1<<cbits - 1
	rng := rand.New(rand.NewSource(10))
	dI := make([]int32, cmask+1)
	dQ := make([]int32, cmask+1)
	for i := range dI {
		dI[i] = rng.Int31n(1 << 16)
		dQ[i] = rng.Int31n(1 << 16)
	}
	cost0 := make([]int32, n)
	pre0 := make([]uint32, n)
	org0 := make([]uint32, n)
	words := make([]uint32, n)
	for j := range cost0 {
		cost0[j] = rng.Int31n(1 << 16)
		pre0[j] = rng.Uint32()
		org0[j] = uint32(j)
		words[j] = rng.Uint32()
	}
	for _, tc := range []struct {
		name string
		tau  int32
	}{{"open", math.MaxInt32}, {"half", 1<<16 + 1<<15}} {
		b.Run(tc.name, func(b *testing.B) {
			cost := make([]int32, n)
			pre := make([]uint32, n)
			org := make([]uint32, n)
			kept := 0
			b.ReportAllocs()
			for b.Loop() {
				copy(cost, cost0)
				copy(pre, pre0)
				copy(org, org0)
				kept += AccumulateCompact(tc.tau, cost, pre, org, words, dI, dQ, cmask, cbits)
			}
			benchSink = uint64(kept)
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "candidates/s")
		})
	}
}

// BenchmarkBuildDistTables fills one stored symbol's pair of C=6 tables
// (2 × 64 entries), the per-symbol setup of every spine step.
func BenchmarkBuildDistTables(b *testing.B) {
	const L = 64
	q, ok := NewQuantizer(40, 1000)
	if !ok {
		b.Fatal("NewQuantizer failed")
	}
	x := make([]float64, L)
	for v := range x {
		x[v] = -2 + 4*float64(v)/(L-1)
	}
	dI := make([]int32, L)
	dQ := make([]int32, L)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		q.BuildDistTables(float64(i&7)*0.3-1, 0.7, x, dI, dQ)
	}
	b.ReportMetric(2*L*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

var benchSink uint64
