package spice

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// singlePathDigest pins the one-draw extraction path byte for byte: the
// compiled-vs-interpreted pair only proves the two stepping paths agree with
// each other, so a change to the phase sequence both of them run needs an
// outside reference. Recorded before the extraction phases were unified over
// one lane-set runner; any change to it is a change in simulated results.
const singlePathDigest = "58933d2a2e5bdd857257ad2318ddffb8555d87275145c151034c5854d047913a"

// pinModes are all six topologies.
var pinModes = []Mode{ModeBaseline, ModeMaxCap, ModeHighPerf, ModeTwinCell, ModeMCR, ModeTLNear}

type pinHash struct{ h hash.Hash }

func (p pinHash) f(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		p.h.Write(b[:])
	}
}

func (p pinHash) s(str string) {
	p.f(float64(len(str)))
	p.h.Write([]byte(str))
}

func (p pinHash) err(err error) {
	if err == nil {
		p.s("<nil>")
		return
	}
	p.s(err.Error())
}

func (p pinHash) raw(r RawTimings) { p.f(r.RCD, r.RASFull, r.RASET, r.RP, r.WRFull, r.WRET) }

// TestSinglePathDigest hashes the Fig. 7 waveforms of every topology, the
// Fig. 11 refresh-window sweep, the nominal extraction of every topology at
// fresh and ET-decayed charge, and the depleted-cell failure string, and
// compares the hash to the value recorded before the phase runner existed.
func TestSinglePathDigest(t *testing.T) {
	p := Default()
	h := pinHash{sha256.New()}
	for _, mode := range pinModes {
		samples, raw, err := WaveformActPre(p, mode, 0.1e-9)
		h.err(err)
		h.f(float64(len(samples)))
		for _, s := range samples {
			h.f(s.T, s.BL, s.BLB, s.Cell, s.CellB)
		}
		h.raw(raw)
	}
	sweep, err := REFWSweep(p, 10)
	h.err(err)
	h.f(float64(len(sweep)))
	for _, pt := range sweep {
		h.f(pt.Ms, pt.RCD, pt.RAS, pt.V0)
	}
	for _, mode := range pinModes {
		for _, frac := range []float64{p.RestoreFrac, p.ETFrac} {
			raw, err := Extract(p, mode, frac*p.VDD)
			h.err(err)
			h.raw(raw)
		}
	}
	_, err = Extract(p, ModeHighPerf, 0.05)
	h.err(err)
	if got := hex.EncodeToString(h.h.Sum(nil)); got != singlePathDigest {
		t.Errorf("single-path digest %s, want %s", got, singlePathDigest)
	}
}
