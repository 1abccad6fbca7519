// Package mem implements the memory controller of the evaluated system
// (paper Table 2): FR-FCFS-Cap scheduling, a 120 ns timeout-based open-row
// policy, 64-entry read/write queues with write draining, and a
// heterogeneous refresh engine that issues distinct refresh streams for
// max-capacity and high-performance rows (paper §5.2). The controller
// takes requests already decoded to DRAM coordinates (EnqueueDecoded): the
// system simulator places pages with its profiling-guided mapping
// (internal/core.PageMapper). Mapper models the two physical-address
// interleavings of paper §5.1 and their reconfiguration granularity.
package mem

import (
	"fmt"
	"math/bits"

	"clrdram/internal/dram"
)

// Scheme selects the physical-address interleaving policy (paper §5.1,
// Figure 10). The scheme determines how many pages share a DRAM row and
// therefore the granularity of CLR-DRAM reconfiguration.
type Scheme int

const (
	// SchemeRowBankCol places a contiguous 8 KiB block (one row's worth) in
	// a single bank: bits low→high are offset | column | bank | bank-group
	// | row. Pages are not split across rows, so CLR-DRAM reconfiguration
	// granularity is a single row (two 4 KiB pages in max-capacity mode,
	// one in high-performance mode). This is the default mapping.
	SchemeRowBankCol Scheme = iota
	// SchemeRowColBank interleaves consecutive cache lines across banks:
	// offset | bank | bank-group | column | row. A page is striped over all
	// 16 banks, so one reconfiguration step switches a 16-row gang — the
	// coarse-granularity case the paper discusses in §5.1.
	SchemeRowColBank
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeRowBankCol:
		return "row:bg:bank:col"
	case SchemeRowColBank:
		return "row:col:bg:bank"
	default:
		return "unknown"
	}
}

// Address is a fully decoded DRAM coordinate. Bank is the flat bank index.
type Address struct {
	Bank   int
	Row    int
	Column int
}

// Mapper translates physical byte addresses into DRAM coordinates for a
// single-channel, single-rank system.
type Mapper struct {
	scheme   Scheme
	colBits  uint
	bankBits uint // bank + bank group combined (flat)
	rowBits  uint
	columns  int
	banks    int
	rows     int
}

// NewMapper builds a mapper for the given device geometry. Geometry
// dimensions must be powers of two.
func NewMapper(cfg dram.Config, scheme Scheme) (*Mapper, error) {
	banks := cfg.Banks()
	for _, d := range []struct {
		name string
		v    int
	}{{"columns", cfg.Columns}, {"banks", banks}, {"rows", cfg.Rows}} {
		if d.v <= 0 || d.v&(d.v-1) != 0 {
			return nil, fmt.Errorf("mem: %s (%d) must be a power of two", d.name, d.v)
		}
	}
	return &Mapper{
		scheme:   scheme,
		colBits:  uint(bits.TrailingZeros(uint(cfg.Columns))),
		bankBits: uint(bits.TrailingZeros(uint(banks))),
		rowBits:  uint(bits.TrailingZeros(uint(cfg.Rows))),
		columns:  cfg.Columns,
		banks:    banks,
		rows:     cfg.Rows,
	}, nil
}

// lineBits is log2 of the 64-byte cache line size.
const lineBits = 6

// Capacity returns the mapped capacity in bytes.
func (m *Mapper) Capacity() uint64 {
	return uint64(m.rows) * uint64(m.banks) * uint64(m.columns) << lineBits
}

// Decode translates a physical byte address. Addresses beyond the device
// capacity wrap (high row bits are masked), matching a simulator that models
// a footprint rather than an OS-managed physical space.
func (m *Mapper) Decode(addr uint64) Address {
	a := addr >> lineBits
	var col, bank, row uint64
	switch m.scheme {
	case SchemeRowBankCol:
		col = a & (uint64(m.columns) - 1)
		a >>= m.colBits
		bank = a & (uint64(m.banks) - 1)
		a >>= m.bankBits
		row = a & (uint64(m.rows) - 1)
	case SchemeRowColBank:
		bank = a & (uint64(m.banks) - 1)
		a >>= m.bankBits
		col = a & (uint64(m.columns) - 1)
		a >>= m.colBits
		row = a & (uint64(m.rows) - 1)
	}
	return Address{Bank: int(bank), Row: int(row), Column: int(col)}
}

// Encode is the inverse of Decode (for addresses within capacity): it
// produces the smallest physical byte address that decodes to the given
// coordinate.
func (m *Mapper) Encode(da Address) uint64 {
	var a uint64
	switch m.scheme {
	case SchemeRowBankCol:
		a = uint64(da.Row)
		a = a<<m.bankBits | uint64(da.Bank)
		a = a<<m.colBits | uint64(da.Column)
	case SchemeRowColBank:
		a = uint64(da.Row)
		a = a<<m.colBits | uint64(da.Column)
		a = a<<m.bankBits | uint64(da.Bank)
	}
	return a << lineBits
}

// RowsPerPage returns how many distinct rows a 4 KiB page touches under
// this mapping — the CLR-DRAM reconfiguration granularity driver (§5.1).
func (m *Mapper) RowsPerPage() int {
	switch m.scheme {
	case SchemeRowBankCol:
		return 1
	case SchemeRowColBank:
		// A page (64 lines) covers all banks before advancing the column:
		// it stays within one row index across min(64, banks) banks.
		if m.banks >= 64 {
			return 64
		}
		return m.banks
	default:
		return 1
	}
}

// PagesPerRowSet returns how many 4 KiB pages live in one reconfigurable
// row set (the "½·2^X pages" of §5.1, before halving for high-performance
// mode).
func (m *Mapper) PagesPerRowSet() int {
	rowBytes := uint64(m.columns) << lineBits
	switch m.scheme {
	case SchemeRowBankCol:
		return int(rowBytes / 4096)
	case SchemeRowColBank:
		return int(rowBytes*uint64(m.RowsPerPage())) / 4096
	default:
		return 1
	}
}
