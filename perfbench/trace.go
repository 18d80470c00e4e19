package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer, or one operation
// (name "op") from its start to its resolution. Spans of one operation
// share op; parent indexes the span that caused this one (-1 for none).
type span struct {
	name       string
	op, parent int
	start, end time.Duration // since the tracer started
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].end = time.Since(t.t0)
	t.mu.Unlock()
}

// durations lists the durations of the closed spans called name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.name == name && s.end > 0 {
			ds = append(ds, s.end-s.start)
		}
	}
	return ds
}

// write saves the spans as tab-separated lines: index, parent, op, name,
// start and end in microseconds.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span\tparent\top\tname\tstart_us\tend_us")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.op, s.name, s.start.Microseconds(), s.end.Microseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profile is a CPU profile of the benchmark's own process.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns the cpuShares figures.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	stacks, err := parseProfile(&p.buf)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return attribute(stacks), nil
}

// stack is one profile sample: its count and function names, leaf first,
// inlined frames included.
type stack struct {
	count int64
	funcs []string
}

// layerOf maps a package path to the layer it belongs to ("" = none).
func layerOf(pkg string) string {
	switch strings.TrimPrefix(pkg, "spinal/internal/") {
	case "spinal", "spinal/code", "core", "hw", "hashfn", "code", "modem":
		return "core"
	case "spinal/channel", "channel":
		return "channel"
	case "spinal/link", "link", "framing", "capacity":
		return "link"
	case "spinal/transport", "transport":
		return "transport"
	case "spinal/daemon", "daemon":
		return "daemon"
	case "main":
		return "bench"
	}
	return ""
}

// pkgOf extracts the package path from a symbol such as
// "spinal/internal/hw.SelectKeys" or "net.(*UDPConn).ReadFromUDP".
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/") + 1
	if dot := strings.Index(fn[slash:], "."); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// attribute turns samples into self shares. A sample whose leaf is in the
// runtime counts as runtime; one whose leaf is socket or syscall code as
// net; any other sample goes to the layer of its innermost frame in this
// repository's packages, so a standard-library helper (a sort, a hash, a
// random draw) counts where it was called from.
func attribute(stacks []stack) map[string]float64 {
	n := map[string]int64{}
	var total int64
	for _, s := range stacks {
		total += s.count
		if len(s.funcs) == 0 {
			continue
		}
		leaf := pkgOf(s.funcs[0])
		switch {
		case leaf == "runtime" || strings.HasPrefix(leaf, "runtime/") || strings.HasPrefix(leaf, "internal/runtime/"):
			n["cpu.runtime"] += s.count
			continue
		case leaf == "net" || leaf == "syscall" || leaf == "internal/poll" || strings.HasPrefix(leaf, "internal/syscall/"):
			n["cpu.net"] += s.count
			continue
		}
		for _, fn := range s.funcs {
			pkg := pkgOf(fn)
			layer := layerOf(pkg)
			if layer == "" {
				continue
			}
			n["cpu."+layer] += s.count
			switch {
			case pkg == "spinal/internal/hw":
				n["cpu.hw"] += s.count
				for _, k := range []string{"SelectKeys", "AccumulateCompact"} {
					if strings.HasPrefix(fn, pkg+"."+k) {
						n["cpu.hw."+k] += s.count
					}
				}
			case pkg == "spinal/internal/hashfn":
				n["cpu.hashfn"] += s.count
				if strings.Contains(fn, "oaat") || strings.Contains(fn, "OneAtATime") {
					n["cpu.hashfn.oaat"] += s.count
				}
			}
			break
		}
	}
	shares := map[string]float64{"cpu.samples": float64(total)}
	for _, m := range cpuShares {
		if m.name != "cpu.samples" && total > 0 {
			shares[m.name] = float64(n[m.name]) / float64(total)
		}
	}
	return shares
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes,
// keeping only what attribute needs: each sample's first value and its
// stack of function names.
func parseProfile(r io.Reader) ([]stack, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location → function ids, leaf first
		funcs   = map[uint64]int64{}    // function → name string index
		strs    []string
	)
	err = eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stacks := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

var errProto = errors.New("malformed profile")

// eachField walks a protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		field := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
