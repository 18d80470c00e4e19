package main

import "math/rand/v2"

// inputs draws a workload's operations from its seed in operation order:
// operation i always gets the same payload and channel seed, whatever the
// timing of the run. The program sees only what inputs generates.
type inputs struct {
	rng *rand.Rand
}

// newInputs seeds a stream; stream separates the workloads' sequences.
func newInputs(seed int64, stream uint64) *inputs {
	return &inputs{rng: rand.New(rand.NewPCG(uint64(seed), stream))}
}

func (in *inputs) payload(n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := in.rng.Uint64()
		for j := i; j < min(i+8, n); j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
	return b
}

// channelSeed is a flow's channel noise seed.
func (in *inputs) channelSeed() int64 { return int64(in.rng.Uint64() >> 1) }

// uniform draws from [0, 1).
func (in *inputs) uniform() float64 { return in.rng.Float64() }
