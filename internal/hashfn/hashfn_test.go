package hashfn

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func allHashes() []Hash {
	return []Hash{OneAtATime{}, Lookup3{}, Salsa20{}, OneAtATime{Seed: 0x9e3779b9}}
}

func TestDeterminism(t *testing.T) {
	for _, h := range allHashes() {
		for i := 0; i < 100; i++ {
			s := rand.Uint32()
			m := rand.Uint32() & 0xf
			if h.Sum(s, m, 4) != h.Sum(s, m, 4) {
				t.Fatalf("%s: not deterministic", h.Name())
			}
		}
	}
}

func TestDistinctInputsDistinctOutputs(t *testing.T) {
	// For each hash, hashing all 16 values of a 4-bit message from the same
	// state should essentially never collide (16 outputs in a 2^32 space).
	for _, h := range allHashes() {
		for trial := 0; trial < 50; trial++ {
			s := rand.Uint32()
			seen := make(map[uint32]uint32)
			for m := uint32(0); m < 16; m++ {
				out := h.Sum(s, m, 4)
				if prev, ok := seen[out]; ok {
					t.Fatalf("%s: collision state=%#x m=%d vs m=%d", h.Name(), s, m, prev)
				}
				seen[out] = m
			}
		}
	}
}

func TestSeedChangesOutput(t *testing.T) {
	a := OneAtATime{Seed: 1}
	b := OneAtATime{Seed: 2}
	diff := 0
	for i := 0; i < 256; i++ {
		if a.Sum(uint32(i), 0, 4) != b.Sum(uint32(i), 0, 4) {
			diff++
		}
	}
	if diff < 250 {
		t.Fatalf("seeds produce nearly identical hashes: %d/256 differ", diff)
	}
}

// TestAvalanche verifies the mixing property that makes spinal codes work:
// flipping one input bit flips close to half of the output bits on average.
func TestAvalanche(t *testing.T) {
	for _, h := range allHashes() {
		const trials = 2000
		var totalFlips float64
		for i := 0; i < trials; i++ {
			s := rand.Uint32()
			m := rand.Uint32() & 0xf
			base := h.Sum(s, m, 4)
			bit := uint32(1) << uint(rand.Intn(4))
			flipped := h.Sum(s, m^bit, 4)
			totalFlips += float64(bits.OnesCount32(base ^ flipped))
		}
		avg := totalFlips / trials
		if math.Abs(avg-16) > 1.0 {
			t.Errorf("%s: avalanche average %.2f bits, want ≈16", h.Name(), avg)
		}
	}
}

// TestStateAvalanche checks avalanche with respect to the state input,
// which is what magnifies a single message-bit difference down the spine.
func TestStateAvalanche(t *testing.T) {
	for _, h := range allHashes() {
		const trials = 2000
		var totalFlips float64
		for i := 0; i < trials; i++ {
			s := rand.Uint32()
			base := h.Sum(s, 7, 4)
			bit := uint32(1) << uint(rand.Intn(32))
			flipped := h.Sum(s^bit, 7, 4)
			totalFlips += float64(bits.OnesCount32(base ^ flipped))
		}
		avg := totalFlips / trials
		if math.Abs(avg-16) > 1.0 {
			t.Errorf("%s: state avalanche average %.2f bits, want ≈16", h.Name(), avg)
		}
	}
}

// TestOutputBitBalance verifies each output bit is roughly unbiased.
func TestOutputBitBalance(t *testing.T) {
	for _, h := range allHashes() {
		const trials = 4000
		counts := make([]int, 32)
		for i := 0; i < trials; i++ {
			out := h.Sum(rand.Uint32(), rand.Uint32()&0xf, 4)
			for b := 0; b < 32; b++ {
				if out&(1<<uint(b)) != 0 {
					counts[b]++
				}
			}
		}
		for b, c := range counts {
			frac := float64(c) / trials
			if frac < 0.44 || frac > 0.56 {
				t.Errorf("%s: output bit %d biased: %.3f", h.Name(), b, frac)
			}
		}
	}
}

// TestKBitsMasked verifies only the low k bits of m influence the hash for
// lookup3 and salsa20 (one-at-a-time consumes whole bytes, so it masks at
// byte granularity by construction of the encoder, which pre-masks).
func TestKBitsMasked(t *testing.T) {
	// Bits above k must not change the output.
	l := Lookup3{}
	s20 := Salsa20{}
	err := quick.Check(func(s, m, hi uint32) bool {
		m &= 0x7
		hi &^= 0x7
		return l.Sum(s, m, 3) == l.Sum(s, m|hi, 3) &&
			s20.Sum(s, m, 3) == s20.Sum(s, m|hi, 3)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRNGWordDistinct verifies distinct indices give distinct streams and
// that symbols can be generated out of order (the §7.1 property).
func TestRNGWordDistinct(t *testing.T) {
	r := RNG{H: OneAtATime{}}
	seed := uint32(0xdecafbad)
	seen := make(map[uint32]bool)
	for tdx := uint32(0); tdx < 64; tdx++ {
		seen[r.Word(seed, tdx)] = true
	}
	if len(seen) != 64 {
		t.Fatalf("RNG stream has collisions: %d distinct of 64", len(seen))
	}
	// Out-of-order generation equals in-order generation.
	if r.Word(seed, 63) != r.Word(seed, 63) {
		t.Fatal("RNG not a pure function of (seed, index)")
	}
}

// TestRNGUniformity checks the c-bit fields used for constellation mapping
// are close to uniform.
func TestRNGUniformity(t *testing.T) {
	r := RNG{H: OneAtATime{}}
	const c = 6
	counts := make([]int, 1<<c)
	const trials = 1 << 16
	for i := 0; i < trials; i++ {
		w := r.Word(rand.Uint32(), uint32(i))
		counts[w&((1<<c)-1)]++
	}
	want := float64(trials) / float64(len(counts))
	for v, n := range counts {
		if math.Abs(float64(n)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d count %d, want ≈%.0f", v, n, want)
		}
	}
}

func TestSalsa20CoreNontrivial(t *testing.T) {
	// With the sigma constants loaded (as Sum always does), the core output
	// must differ from its input in every word — basic sanity that the
	// permutation is wired correctly.
	var in [16]uint32
	in[0] = 0x61707865
	in[5] = 0x3320646e
	in[10] = 0x79622d32
	in[15] = 0x6b206574
	out := salsa20Core(&in)
	same := 0
	for i, w := range out {
		if w == in[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("salsa20 core leaves %d words unchanged", same)
	}
}

func BenchmarkOneAtATime(b *testing.B) {
	h := OneAtATime{}
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink = h.Sum(sink, uint32(i)&0xf, 4)
	}
	_ = sink
}

func BenchmarkLookup3(b *testing.B) {
	h := Lookup3{}
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink = h.Sum(sink, uint32(i)&0xf, 4)
	}
	_ = sink
}

func BenchmarkSalsa20(b *testing.B) {
	h := Salsa20{}
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink = h.Sum(sink, uint32(i)&0xf, 4)
	}
	_ = sink
}

// BenchmarkFinishWords finishes one stored symbol's RNG word for a full
// 256-candidate decode block — the hash half of the quantized kernel's
// per-symbol scoring pass.
func BenchmarkFinishWords(b *testing.B) {
	const n = 256
	o := OneAtATime{}
	pre := make([]uint32, n)
	for j := range pre {
		pre[j] = o.Prefix(uint32(j) * 2654435761)
	}
	out := make([]uint32, n)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		FinishWords(pre, uint32(i), out)
	}
	b.ReportMetric(n*float64(b.N)/b.Elapsed().Seconds(), "candidates/s")
}

// BenchmarkChildrenPrefixes expands one parent into its 2^4 children
// and their RNG prefixes, the per-parent step of block expansion at k=4.
func BenchmarkChildrenPrefixes(b *testing.B) {
	const kb = 4
	o := OneAtATime{}
	cs := make([]uint32, 1<<kb)
	pre := make([]uint32, 1<<kb)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		o.ChildrenPrefixes(uint32(i)*2654435761, kb, cs, pre)
	}
	b.ReportMetric(float64(len(cs))*float64(b.N)/b.Elapsed().Seconds(), "candidates/s")
}
