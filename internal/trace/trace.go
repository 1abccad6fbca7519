// Package trace defines the CPU instruction-trace representation consumed by
// the core model, plus a text file format compatible in spirit with
// Ramulator's CPU traces ("<non-memory-instruction-count> <address> <R|W>").
//
// The paper drives Ramulator with Pin-generated SPEC/TPC/MediaBench traces;
// we do not have those, so package workload generates synthetic equivalents.
// This package is only concerned with the record shape and (de)serialising
// traces so that cmd/tracegen output can be replayed by cmd/clrsim.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Record is one trace entry: Bubble non-memory instructions followed by one
// memory instruction accessing Addr (a byte address; the cache model aligns
// it to a line).
type Record struct {
	Bubble int    // non-memory instructions preceding the memory access
	Addr   uint64 // byte address of the memory access
	Write  bool   // true for a store, false for a load
}

// Instructions returns the number of instructions this record represents.
func (r Record) Instructions() int { return r.Bubble + 1 }

// Reader yields trace records. Generators and file readers implement it.
// Next returns io.EOF when the trace is exhausted; infinite generators never
// do.
type Reader interface {
	Next() (Record, error)
}

// SliceReader replays an in-memory record slice, optionally looping forever.
type SliceReader struct {
	Records []Record
	Loop    bool
	pos     int
}

// Next implements Reader.
func (s *SliceReader) Next() (Record, error) {
	if len(s.Records) == 0 {
		return Record{}, io.EOF
	}
	if s.pos >= len(s.Records) {
		if !s.Loop {
			return Record{}, io.EOF
		}
		s.pos = 0
	}
	r := s.Records[s.pos]
	s.pos++
	return r, nil
}

// Reset rewinds the reader to the beginning.
func (s *SliceReader) Reset() { s.pos = 0 }

// CloneableReader is a Reader whose position can be snapshotted: CloneReader
// returns an independent reader that continues the identical record stream
// from the current position, leaving the original untouched. The
// checkpoint-and-fork warmup path (internal/sim) clones every per-core
// reader it snapshots; every reader a workload profile builds
// (workload.Profile.NewReader) implements it, as a copy of the reader's
// state that shares its immutable tables: a clone costs the same at any
// position, and nothing is replayed.
type CloneableReader interface {
	Reader
	CloneReader() Reader
}

// CloneReader implements CloneableReader: the copy continues from the current
// position and shares the (immutable) record slice.
func (s *SliceReader) CloneReader() Reader {
	c := *s
	return &c
}

// Write serialises records to w, one per line: "<bubble> <hex-addr> <R|W>".
func Write(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range records {
		op := "R"
		if r.Write {
			op = "W"
		}
		if _, err := fmt.Fprintf(bw, "%d 0x%x %s\n", r.Bubble, r.Addr, op); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads the text trace format produced by Write. Blank lines and lines
// starting with '#' are ignored.
func Parse(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		bubble, err := strconv.Atoi(fields[0])
		if err != nil || bubble < 0 {
			return nil, fmt.Errorf("trace: line %d: bad bubble count %q", lineNo, fields[0])
		}
		addr, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad address %q", lineNo, fields[1])
		}
		var write bool
		switch fields[2] {
		case "R", "r":
			write = false
		case "W", "w":
			write = true
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", lineNo, fields[2])
		}
		out = append(out, Record{Bubble: bubble, Addr: addr, Write: write})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// FuncReader adapts a generator function to the Reader interface.
type FuncReader func() (Record, error)

// Next implements Reader.
func (f FuncReader) Next() (Record, error) { return f() }

// Collect drains up to n records from r into a slice (fewer on EOF).
func Collect(r Reader, n int) ([]Record, error) {
	out := make([]Record, 0, n)
	for len(out) < n {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
	return out, nil
}
