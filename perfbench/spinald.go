package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spinal/daemon"
)

// spinald-b256: an in-process daemon at the paper's defaults (B=256), a
// 10 dB channel, two shards and the round-robin scheduler, driven across
// loopback UDP from one client socket by an open loop: Poisson arrivals of
// 64-byte submissions at a fixed rate, with a bounded resubmit on timeout.
//
// The rate is about a twelfth of the daemon's batched saturation
// throughput measured when the benchmark was defined (117-148
// submissions/s on two 2.1 GHz Xeon vCPUs), so most submissions find
// their shard idle and the median latency is the daemon's own service
// time. Poisson arrivals reach the knee much sooner: on that host the
// median latency of five seeds ranged from 17 to 69 ms at 60/s and from
// 20 to 34 ms at 30/s as CPU steal came and went, against 19 to 21 ms at
// 10/s.
const (
	spinaldRate   = 10.0 // submissions per second
	spinaldBytes  = 64
	spinaldShards = 2
	spinaldSNRdB  = 10
	spinaldWarmup = 32 // submissions sent at once by each setup
	spinaldStream = 3
	// resubmitAfter sits well above the latency tail at the rate above,
	// so a resubmission means a lost datagram, not a slow flow.
	resubmitAfter = 2 * time.Second
	maxResubmits  = 3
)

// nextConn numbers submissions process-wide: every submission gets its own
// connection ID, so no (conn, seq) pair is reused against a daemon across
// setups or phases, and the daemon's done-cache cannot answer a new
// submission with an old record.
var nextConn atomic.Uint32

type spinald struct {
	seed    int64
	d       *daemon.Daemon
	conn    *net.UDPConn
	in      *inputs
	rate    float64 // arrivals per second; 0 sends a phase's submissions at once
	started int
	buf     []byte

	stop chan struct{}
	wg   sync.WaitGroup
	wake chan struct{} // the receiver settled something

	mu      sync.Mutex // guards everything below; the receiver shares it
	led     *ledger
	subs    map[uint64]*submission
	cur     *phase
	tr      *tracer
	recvErr error
}

type submission struct {
	key       uint64
	conn, seq uint32
	index     int
	payload   []byte
	crc       uint32
	due       time.Time
	sends     int
	span      int
}

func newSpinald(seed int64) (workload, error) {
	in := newInputs(seed, spinaldStream)
	d, err := daemon.New(daemon.Config{
		Listen:    "127.0.0.1:0",
		Shards:    spinaldShards,
		SNRdB:     spinaldSNRdB,
		Seed:      in.channelSeed(),
		Scheduler: "rr",
	})
	if err != nil {
		return nil, err
	}
	d.Start()
	conn, err := net.DialUDP("udp", nil, d.Addr())
	if err != nil {
		d.Shutdown(context.Background())
		return nil, err
	}
	// A burst of records must not overflow the client's socket.
	conn.SetReadBuffer(4 << 20)
	s := &spinald{
		seed: seed, d: d, conn: conn, in: in,
		stop: make(chan struct{}),
		wake: make(chan struct{}, 1),
		led:  newLedger(true),
		subs: map[uint64]*submission{},
	}
	s.wg.Add(1)
	go s.receive()
	if _, err := s.measure(opsBudget(spinaldWarmup), nil); err != nil {
		s.close()
		return nil, fmt.Errorf("spinald warm-up: %w", err)
	}
	s.rate = spinaldRate
	return s, nil
}

func (s *spinald) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.d.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemon shutdown: %v\n", err)
	}
	close(s.stop)
	s.conn.SetReadDeadline(time.Now())
	s.wg.Wait()
	s.conn.Close()
}

// receive is the client's one receiver goroutine: it reads result
// batches and settles the submissions they answer.
func (s *spinald) receive() {
	defer s.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		s.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := s.conn.Read(buf)
		if err != nil {
			select {
			case <-s.stop:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			s.mu.Lock()
			s.recvErr = err
			s.mu.Unlock()
			return
		}
		now := time.Now()
		recs, err := parseBatch(buf[:n])
		s.mu.Lock()
		if err != nil {
			s.led.breakf("result datagram: %v", err)
		}
		for _, r := range recs {
			s.onRecord(r, now)
		}
		s.mu.Unlock()
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// onRecord settles the submission a record answers. The wire carries the
// delivered datagram's length and CRC-32, not its bytes, so those are what
// a delivery is verified by. Called with s.mu held.
func (s *spinald) onRecord(r record, now time.Time) {
	key := uint64(r.conn)<<32 | uint64(r.seq)
	sub := s.subs[key]
	claimed := r.status == daemon.StatusDelivered
	verified := claimed && sub != nil && int(r.bytes) == len(sub.payload) && r.checksum == sub.crc
	fingerprint := uint64(r.status)<<56 | uint64(r.bytes)<<32 | uint64(r.checksum)
	out := s.led.settle(key, claimed, verified, fingerprint)
	if out == duplicate {
		return
	}
	delete(s.subs, key)
	s.tr.end(sub.span)
	ph := s.cur
	ph.latencies = append(ph.latencies, now.Sub(sub.due))
	ph.symbols += int64(r.symbols) + int64(r.ackSymbols)
	switch out {
	case delivered:
		ph.bytes += int64(len(sub.payload))
	case wrong:
		fmt.Fprintf(os.Stderr, "perfbench: wrong delivery (status delivered, crc32/length differ): workload spinald-b256 seed %d op %d conn %d seq %d\n",
			s.seed, sub.index, sub.conn, sub.seq)
	}
}

// schedule draws the phase's arrival times as offsets from its start: a
// Poisson process at s.rate conditioned on the phase's b.maxOps arrivals
// (sorted uniform draws over maxOps / rate seconds), so every seed offers
// the same load. With rate 0 every submission is due at once.
func (s *spinald) schedule(b budget) []time.Duration {
	var span time.Duration
	if s.rate > 0 {
		span = time.Duration(float64(b.maxOps) / s.rate * float64(time.Second))
	}
	due := make([]time.Duration, b.maxOps)
	for i := range due {
		due[i] = time.Duration(s.in.uniform() * float64(span))
	}
	slices.Sort(due)
	return due
}

// measure is the open-loop sender: arrivals follow the seeded schedule
// whatever the daemon's progress, each unanswered submission is
// resubmitted after resubmitAfter up to maxResubmits times, and latency
// runs from an arrival's due time to the first record answering it.
func (s *spinald) measure(b budget, tr *tracer) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	m0 := s.d.Metrics()
	s.mu.Lock()
	s.cur, s.tr = ph, tr
	acct0 := s.led.n
	s.mu.Unlock()

	type retry struct {
		sub *submission
		at  time.Time
	}
	var (
		retries         []retry // in time order: every entry waits the same resubmitAfter
		sent, resubmits int
		late            []time.Duration
		queue           []int
	)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	schedule := s.schedule(b)
	start := time.Now()
	for {
		s.mu.Lock()
		for len(retries) > 0 && !s.led.open[retries[0].sub.key] {
			retries = retries[1:]
		}
		err := errors.Join(s.led.err, s.recvErr)
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		arrival := len(schedule) > 0
		if !arrival && len(retries) == 0 {
			break
		}
		var due time.Time
		if arrival {
			due = start.Add(schedule[0])
		}
		next := due
		if len(retries) > 0 && (!arrival || retries[0].at.Before(due)) {
			next, arrival = retries[0].at, false
		}
		if wait := time.Until(next); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-s.wake:
				continue
			}
		}
		now := time.Now()
		if arrival {
			sub := s.submit(due, tr)
			late = append(late, now.Sub(due))
			if err := s.transmit(sub, tr); err != nil {
				return nil, err
			}
			sent++
			retries = append(retries, retry{sub, now.Add(resubmitAfter)})
			if tr != nil {
				for _, sh := range s.d.Metrics().Shards {
					queue = append(queue, sh.QueueLen)
				}
			}
			schedule = schedule[1:]
			continue
		}
		r := retries[0]
		retries = retries[1:]
		s.mu.Lock()
		open := s.led.open[r.sub.key]
		if open && r.sub.sends > maxResubmits {
			s.led.expire(r.sub.key)
			delete(s.subs, r.sub.key)
			ph.latencies = append(ph.latencies, now.Sub(r.sub.due))
			s.tr.end(r.sub.span)
			open = false
		}
		s.mu.Unlock()
		if open {
			if err := s.transmit(r.sub, tr); err != nil {
				return nil, err
			}
			sent++
			resubmits++
			retries = append(retries, retry{r.sub, now.Add(resubmitAfter)})
		}
	}
	ph.elapsed = time.Since(start)
	s.mu.Lock()
	err := s.led.check()
	ph.acct = s.led.n.minus(acct0)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}

	m1 := s.d.Metrics()
	ops := float64(ph.acct.attempted)
	var dups, replays int64
	admitted := make([]float64, len(m1.Shards))
	for i := range m1.Shards {
		dups += m1.Shards[i].DupSubmits - m0.Shards[i].DupSubmits
		replays += m1.Shards[i].Replays - m0.Shards[i].Replays
		admitted[i] = float64(m1.Shards[i].Admitted - m0.Shards[i].Admitted)
	}
	var sum float64
	for _, a := range admitted {
		sum += a
	}
	ph.layer[mDaemonRxLoss.name] = 1 - float64(m1.Socket.DatagramsIn-m0.Socket.DatagramsIn)/float64(sent)
	ph.layer[mDaemonDropped.name] = float64(m1.Socket.IngressDropped - m0.Socket.IngressDropped)
	ph.layer[mDaemonDups.name] = float64(dups)
	ph.layer[mDaemonReplays.name] = float64(replays)
	ph.layer[mDaemonBatching.name] = float64(m1.Socket.RecordsOut-m0.Socket.RecordsOut) /
		float64(m1.Socket.DatagramsOut-m0.Socket.DatagramsOut)
	ph.layer[mDaemonQueueP99.name] = float64(percentile(queue, 0.99))
	ph.layer[mDaemonShardSkew.name] = slices.Max(admitted) / (sum / float64(len(admitted)))
	ph.layer[mLoadgenLate.name] = ms(percentile(late, 0.99))
	ph.layer[mLoadgenResubmit.name] = float64(resubmits) / ops
	return ph, nil
}

// submit draws the next arrival's payload and opens it in the ledger
// before it is sent, so its answer can never arrive first.
func (s *spinald) submit(due time.Time, tr *tracer) *submission {
	payload := s.in.payload(spinaldBytes)
	sub := &submission{
		conn:    nextConn.Add(1),
		seq:     uint32(s.seed),
		index:   s.started,
		payload: payload,
		crc:     crc32.ChecksumIEEE(payload),
		due:     due,
	}
	sub.key = uint64(sub.conn)<<32 | uint64(sub.seq)
	sub.span = tr.begin("op", sub.index, -1)
	s.started++
	s.mu.Lock()
	s.subs[sub.key] = sub
	s.led.start(sub.key)
	s.mu.Unlock()
	return sub
}

func (s *spinald) transmit(sub *submission, tr *tracer) error {
	s.buf = appendSubmit(s.buf[:0], sub.conn, sub.seq, sub.payload)
	sp := tr.begin("daemon.submit", sub.index, sub.span)
	_, err := s.conn.Write(s.buf)
	tr.end(sp)
	sub.sends++
	if err != nil {
		return fmt.Errorf("submit op %d: %w", sub.index, err)
	}
	return nil
}

// The client half of spinald's documented wire grammar: 'S' submit
// {conn, seq, weight, payload} and 'R' batches of 27-byte records
// {conn, seq, shard, status, bytes, symbols, ackSymbols, crc32}, all
// little-endian.
const (
	kindSubmit  = 'S'
	kindBatch   = 'R'
	batchHeader = 3
	recordLen   = 27
)

type record struct {
	conn, seq                            uint32
	shard                                uint16
	status                               uint8
	bytes, symbols, ackSymbols, checksum uint32
}

func appendSubmit(dst []byte, conn, seq uint32, payload []byte) []byte {
	dst = append(dst, kindSubmit)
	dst = binary.LittleEndian.AppendUint32(dst, conn)
	dst = binary.LittleEndian.AppendUint32(dst, seq)
	dst = append(dst, 0) // default weight
	return append(dst, payload...)
}

var errBadBatch = errors.New("malformed result batch")

func parseBatch(data []byte) ([]record, error) {
	if len(data) < batchHeader || data[0] != kindBatch {
		return nil, errBadBatch
	}
	n := int(binary.LittleEndian.Uint16(data[1:]))
	if len(data) != batchHeader+n*recordLen {
		return nil, errBadBatch
	}
	recs := make([]record, n)
	for i := range recs {
		b := data[batchHeader+i*recordLen:]
		recs[i] = record{
			conn:       binary.LittleEndian.Uint32(b),
			seq:        binary.LittleEndian.Uint32(b[4:]),
			shard:      binary.LittleEndian.Uint16(b[8:]),
			status:     b[10],
			bytes:      binary.LittleEndian.Uint32(b[11:]),
			symbols:    binary.LittleEndian.Uint32(b[15:]),
			ackSymbols: binary.LittleEndian.Uint32(b[19:]),
			checksum:   binary.LittleEndian.Uint32(b[23:]),
		}
	}
	return recs, nil
}
