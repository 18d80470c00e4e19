package main

import (
	"errors"
	"fmt"
)

// errAccounting marks a broken output check: an answer for an operation
// the benchmark never started, an operation resolved twice in
// contradiction, or operations left unresolved. A run that sees one
// reports correct false.
var errAccounting = errors.New("accounting break")

// outcome is how one answer from the program settled its operation.
type outcome int

const (
	delivered outcome = iota // claimed delivered, and the bytes verify
	failed                   // the program reported a failure
	wrong                    // claimed delivered, but the bytes do not verify
	duplicate                // a later identical answer for a settled operation
)

// counts is the ledger's accounting. Every attempted operation ends as
// delivered or failed; wrong deliveries are failures counted again in
// wrong.
type counts struct {
	attempted, delivered, failed, wrong, duplicates int
}

func (c counts) minus(o counts) counts {
	return counts{
		c.attempted - o.attempted, c.delivered - o.delivered, c.failed - o.failed,
		c.wrong - o.wrong, c.duplicates - o.duplicates,
	}
}

// ledger matches the program's answers to the operations the benchmark
// started, by a key unique per operation, never by arrival order.
type ledger struct {
	// dupsAllowed accepts repeated answers for a settled operation when
	// they are identical to the first (a daemon replaying a record for a
	// resubmission); otherwise a second answer is a break.
	dupsAllowed bool
	open        map[uint64]bool
	settled     map[uint64]uint64 // key → fingerprint of the first answer
	expired     map[uint64]bool   // settled by expire; a late answer is ignored
	n           counts
	err         error
}

func newLedger(dupsAllowed bool) *ledger {
	return &ledger{dupsAllowed: dupsAllowed, open: map[uint64]bool{}, settled: map[uint64]uint64{}, expired: map[uint64]bool{}}
}

func (l *ledger) breakf(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf("%w: %s", errAccounting, fmt.Sprintf(format, args...))
	}
}

// start opens operation key.
func (l *ledger) start(key uint64) {
	if _, done := l.settled[key]; done || l.open[key] {
		l.breakf("operation key %#x reused", key)
		return
	}
	l.open[key] = true
	l.n.attempted++
}

// settle records an answer for key: claimed says the program reported a
// delivery, verified that the delivered bytes match the input, and
// fingerprint identifies the answer's content for duplicate checks.
func (l *ledger) settle(key uint64, claimed, verified bool, fingerprint uint64) outcome {
	if !l.open[key] {
		first, done := l.settled[key]
		switch {
		case !done:
			l.breakf("answer for unknown operation key %#x", key)
		case l.expired[key]:
		case !l.dupsAllowed:
			l.breakf("operation key %#x resolved twice", key)
		case first != fingerprint:
			l.breakf("operation key %#x resolved twice with different answers", key)
		}
		l.n.duplicates++
		return duplicate
	}
	delete(l.open, key)
	l.settled[key] = fingerprint
	switch {
	case claimed && verified:
		l.n.delivered++
		return delivered
	case claimed:
		l.n.failed++
		l.n.wrong++
		return wrong
	default:
		l.n.failed++
		return failed
	}
}

// expire fails an operation that got no answer within its budget.
func (l *ledger) expire(key uint64) {
	if !l.open[key] {
		l.breakf("expiring operation key %#x that is not open", key)
		return
	}
	delete(l.open, key)
	l.settled[key] = 0
	l.expired[key] = true
	l.n.failed++
}

// check reports the first break, or operations still unresolved.
func (l *ledger) check() error {
	if l.err != nil {
		return l.err
	}
	if l.n.delivered+l.n.failed != l.n.attempted || len(l.open) != 0 {
		return fmt.Errorf("%w: %d attempted, %d delivered, %d failed, %d open",
			errAccounting, l.n.attempted, l.n.delivered, l.n.failed, len(l.open))
	}
	return nil
}

// diffSummary describes how a wrong delivery differs from its input.
func diffSummary(got, want []byte) string {
	first, last, n := -1, -1, 0
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			if first < 0 {
				first = i
			}
			last = i
			n++
		}
	}
	return fmt.Sprintf("%d of %d bytes differ, in [%d, %d]; got %d bytes", n, len(want), first, last, len(got))
}
