package main

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"
	"time"
)

func TestLedgerRejectsFlippedByte(t *testing.T) {
	want := []byte("forty-four bytes of mice payload, give or take")
	got := bytes.Clone(want)
	got[len(got)-1] ^= 0x01
	l := newLedger(false)
	l.start(7)
	if out := l.settle(7, true, bytes.Equal(got, want), 0); out != wrong {
		t.Fatalf("flipped byte settled as %v, want wrong", out)
	}
	if l.n.delivered != 0 || l.n.failed != 1 || l.n.wrong != 1 {
		t.Fatalf("counts %+v: a wrong delivery must count as failed and wrong, never delivered", l.n)
	}
	if err := l.check(); err != nil {
		t.Fatalf("a counted wrong delivery is not an accounting break: %v", err)
	}
}

func TestLedgerAccountingBreaks(t *testing.T) {
	for name, misuse := range map[string]func(l *ledger){
		"unknown key":     func(l *ledger) { l.settle(99, true, true, 0) },
		"resolved twice":  func(l *ledger) { l.settle(1, true, true, 0); l.settle(1, true, true, 0) },
		"left unresolved": func(l *ledger) {},
		"key reused":      func(l *ledger) { l.settle(1, false, false, 0); l.start(1) },
	} {
		l := newLedger(false)
		l.start(1)
		misuse(l)
		if err := l.check(); !errors.Is(err, errAccounting) {
			t.Errorf("%s: check() = %v, want an accounting break", name, err)
		}
	}
}

// spinaldClient is a spinald workload with no daemon behind it, enough to
// drive its record handling.
func spinaldClient(payloads map[uint64][]byte) *spinald {
	s := &spinald{led: newLedger(true), subs: map[uint64]*submission{}, cur: &phase{}}
	for key, p := range payloads {
		s.subs[key] = &submission{key: key, conn: uint32(key >> 32), seq: uint32(key), payload: p, crc: crc32.ChecksumIEEE(p), span: -1}
		s.led.start(key)
	}
	return s
}

func deliveredRecord(key uint64, p []byte) record {
	return record{conn: uint32(key >> 32), seq: uint32(key), bytes: uint32(len(p)), checksum: crc32.ChecksumIEEE(p)}
}

func TestSpinaldCheckRejectsStaleReplay(t *testing.T) {
	const cur, old = uint64(5)<<32 | 2, uint64(5)<<32 | 1
	fresh, stale := []byte("this run's sixty-four byte submission"), []byte("an earlier run's payload")

	// A replayed record for a pair this run never submitted breaks the
	// accounting.
	s := spinaldClient(map[uint64][]byte{cur: fresh})
	s.onRecord(deliveredRecord(old, stale), time.Now())
	if err := s.led.check(); !errors.Is(err, errAccounting) {
		t.Fatalf("stale record for an unknown pair: check() = %v, want an accounting break", err)
	}

	// A stale record answering a reused pair carries the old payload's
	// CRC: it counts as a wrong delivery, not a delivered one.
	s = spinaldClient(map[uint64][]byte{cur: fresh})
	s.onRecord(deliveredRecord(cur, stale), time.Now())
	if s.led.n.delivered != 0 || s.led.n.wrong != 1 {
		t.Fatalf("stale CRC counted %+v, want one wrong delivery", s.led.n)
	}
}

func TestSpinaldDuplicateRecords(t *testing.T) {
	const key = uint64(9)<<32 | 4
	p := []byte("payload")
	s := spinaldClient(map[uint64][]byte{key: p})
	rec := deliveredRecord(key, p)
	for i := 0; i < 3; i++ { // the first settles, replays are ignored
		s.onRecord(rec, time.Now())
	}
	if err := s.led.check(); err != nil || s.led.n.delivered != 1 || s.led.n.duplicates != 2 {
		t.Fatalf("replays: counts %+v, check %v", s.led.n, err)
	}
	if s.cur.bytes != int64(len(p)) || len(s.cur.latencies) != 1 {
		t.Fatalf("replays counted twice: %d bytes, %d latencies", s.cur.bytes, len(s.cur.latencies))
	}
	rec.status = 1 // an outage contradicting the delivery
	s.onRecord(rec, time.Now())
	if err := s.led.check(); !errors.Is(err, errAccounting) {
		t.Fatalf("contradicting duplicate: check() = %v, want an accounting break", err)
	}
}
