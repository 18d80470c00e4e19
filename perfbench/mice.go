package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"spinal"
	"spinal/channel"
	"spinal/link"
)

// mice: 64 callers in a closed loop over one link.Session, each sending
// its next 44-byte datagram when the previous one resolves. The code and
// block size are BenchmarkLinkEngine's (k=4, B=32, 192-bit blocks); each
// flow crosses its own 12 dB AWGN channel, paced by CapacityRate, with the
// engine's instant acks and a two-worker codec pool.
const (
	miceCallers   = 64
	miceBytes     = 44
	miceSNRdB     = 12
	miceBlockBits = 192
	miceStream    = 1
	// miceRate sizes a run: datagrams per second of --seconds, about
	// what two 2.1 GHz Xeon vCPUs resolved when the benchmark was defined.
	miceRate = 1000
)

func miceParams() spinal.Params { return spinal.Params{K: 4, B: 32, D: 1, C: 6, Tail: 2, Ways: 8} }

type mice struct {
	seed     int64
	sess     *link.Session
	in       *inputs
	led      *ledger
	inflight map[link.FlowID]*miceOp
	started  int // operations started, warm-up included: the next op index
	rounds   int // Session.Step calls so far
	// log, when set, receives every resolved operation (determinism test).
	log func(op *miceOp, r *link.Result)
}

type miceOp struct {
	index, caller int
	payload       []byte
	channelSeed   int64
	sent          time.Time
	sentRound     int
	span          int
}

func newMice(seed int64) (workload, error) {
	sess, err := link.NewSession(miceParams(),
		link.WithCodecPool(2),
		link.WithMaxBlockBits(miceBlockBits),
		link.WithRatePolicy(link.CapacityRate{SNREstimateDB: miceSNRdB}),
	)
	if err != nil {
		return nil, err
	}
	m := &mice{
		seed:     seed,
		sess:     sess,
		in:       newInputs(seed, miceStream),
		led:      newLedger(false),
		inflight: map[link.FlowID]*miceOp{},
	}
	// Warm-up: one datagram per caller, so the pool's codecs are built.
	if _, err := m.measure(opsBudget(miceCallers), nil); err != nil {
		sess.Close()
		return nil, fmt.Errorf("mice warm-up: %w", err)
	}
	return m, nil
}

func (m *mice) close() { m.sess.Close() }

func (m *mice) measure(b budget, tr *tracer) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	acct0, pool0, started0 := m.led.n, m.sess.PoolStats(), m.started
	var rounds, symbols int64
	send := func(caller int, now time.Time) error {
		op := &miceOp{index: m.started, caller: caller, payload: m.in.payload(miceBytes), channelSeed: m.in.channelSeed()}
		m.started++
		op.span = tr.begin("op", op.index, -1)
		s := tr.begin("link.Session.Send", op.index, op.span)
		id, err := m.sess.Send(op.payload, link.WithChannel(channel.NewAWGN(miceSNRdB, op.channelSeed)))
		tr.end(s)
		if err != nil {
			return fmt.Errorf("send op %d: %w", op.index, err)
		}
		op.sent, op.sentRound = now, m.rounds
		m.inflight[id] = op
		m.led.start(uint64(id))
		return nil
	}

	start := time.Now()
	for c := 0; c < miceCallers && b.allows(m.started-started0); c++ {
		if err := send(c, time.Now()); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	for len(m.inflight) > 0 {
		s := tr.begin("link.Session.Step", -1, -1)
		res, err := m.sess.Step(ctx)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("step: %w", err)
		}
		m.rounds++
		now := time.Now()
		for i := range res {
			r := &res[i]
			op := m.inflight[r.ID]
			claimed := r.Err == nil
			out := m.led.settle(uint64(r.ID), claimed, op != nil && claimed && bytes.Equal(r.Datagram, op.payload), 0)
			if op == nil || out == duplicate {
				return nil, m.led.check()
			}
			delete(m.inflight, r.ID)
			tr.end(op.span)
			if out == wrong {
				fmt.Fprintf(os.Stderr, "perfbench: wrong delivery (err == nil): workload mice seed %d op %d flow %d: %s\n",
					m.seed, op.index, r.ID, diffSummary(r.Datagram, op.payload))
			}
			if out == delivered {
				ph.bytes += int64(len(op.payload))
			}
			ph.latencies = append(ph.latencies, now.Sub(op.sent))
			symbols += int64(r.Stats.SymbolsSent)
			ph.symbols += int64(r.Stats.SymbolsSent + r.Stats.AckSymbols)
			rounds += int64(m.rounds - op.sentRound)
			if m.log != nil {
				m.log(op, r)
			}
			if b.allows(m.started - started0) {
				if err := send(op.caller, now); err != nil {
					return nil, err
				}
			}
		}
	}
	ph.elapsed = time.Since(start)
	if err := m.led.check(); err != nil {
		return nil, err
	}
	ph.acct = m.led.n.minus(acct0)
	ops := float64(ph.acct.attempted)
	pool := m.sess.PoolStats()
	ph.layer[mLinkRounds.name] = float64(rounds) / ops
	ph.layer[mLinkSymbols.name] = float64(symbols) / ops
	ph.layer[mLinkBuilds.name] = float64(pool.EncodersBuilt-pool0.EncodersBuilt+pool.DecodersBuilt-pool0.DecodersBuilt) / ops
	return ph, nil
}
