package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// streamGoldens pins an FNV-64a digest of the first goldenRecords records of
// every built-in profile at seed 1 (recordDigest). A change to the sampler,
// the PRNG draw order or any profile's parameters that moves a record
// stream fails here, in the package that owns the stream, before it shows
// up as a moved simulation result.
const goldenRecords = 100_000

var streamGoldens = map[string]uint64{
	"429.mcf-like":        0x33b01bca4beedcae,
	"462.libquantum-like": 0xe5992bb091f07c7e,
	"450.soplex-like":     0x4b14b21685adfcc3,
	"470.lbm-like":        0xea67d7074fa090e2,
	"433.milc-like":       0xfbff1710caec1d1e,
	"471.omnetpp-like":    0x3076f15c84f92ab8,
	"459.GemsFDTD-like":   0x4db2cd0669dae000,
	"437.leslie3d-like":   0x929560acb87f1723,
	"482.sphinx3-like":    0xd0f85a10bc1cef04,
	"410.bwaves-like":     0xaa6910847d3e3ee5,
	"436.cactusADM-like":  0x4a5ed36170be2d9e,
	"434.zeusmp-like":     0xb4f33b6d667ad1dc,
	"481.wrf-like":        0xabf42a0db30b2114,
	"473.astar-like":      0x3f35a1e0f693ce38,
	"483.xalancbmk-like":  0x1c2a7dfa104acabd,
	"403.gcc-like":        0x1b6e62d44b9a21c0,
	"tpcc64-like":         0xff3ab1afe20a410b,
	"400.perlbench-like":  0xa0d9a4cbe95904b8,
	"401.bzip2-like":      0x19855a0745b4ebcc,
	"445.gobmk-like":      0xf29a2d1a42859b9f,
	"456.hmmer-like":      0xf296be3190cc1300,
	"458.sjeng-like":      0x2025f9d79b119524,
	"464.h264ref-like":    0x8307f3aee6b6862f,
	"465.tonto-like":      0xc3ad2d8c5937d5a7,
	"444.namd-like":       0x17afe0dac82e08f4,
	"447.dealII-like":     0x05be247fd4266655,
	"453.povray-like":     0x115e2ab4754821b8,
	"454.calculix-like":   0x460752789a145d4d,
	"435.gromacs-like":    0x8dc5ea5a90fe2358,
	"416.gamess-like":     0xf4309d16f9839d0d,
	"998.specrand-f-like": 0x7bec218bfd4bc2c8,
	"999.specrand-i-like": 0xce2e69ecee939747,
	"tpch2-like":          0x664f522bbbc38f74,
	"tpch6-like":          0xfaa2f70be57a06d4,
	"tpch17-like":         0x753b2db20715035d,
	"mb2.h263enc-like":    0x8e340d053ef93e42,
	"mb2.h263dec-like":    0xe2cce14de45c0c8b,
	"mb2.mpeg2enc-like":   0x208487a1c8f099ef,
	"mb2.mpeg2dec-like":   0x5357ce436bb55b69,
	"mb2.jpegenc-like":    0x4cbf26d7e36f90de,
	"mb2.jpegdec-like":    0x17056bea5dc40c84,
	"random_00":           0xcc707e3e5a90b805,
	"random_01":           0xf12cbbd5cb1d8e80,
	"random_02":           0x6c7dc228af7a1384,
	"random_03":           0x5b027733a3752b0d,
	"random_04":           0x3af08a7739ae4ae3,
	"random_05":           0xab57bba0c656f053,
	"random_06":           0xbe5c4aeb8f085d39,
	"random_07":           0x3d81ff68aab01b45,
	"random_08":           0x5d48c8fe7cd9a854,
	"random_09":           0x30604135f2e1df4a,
	"random_10":           0x5bf4ce0d58fe7b7b,
	"random_11":           0xf81622ddd9fc7fe9,
	"random_12":           0x4e64c036c2a47c5c,
	"random_13":           0x9f703c355e39717c,
	"random_14":           0x8d3db8e1942a3de4,
	"stream_00":           0xe172c79cb4981ec4,
	"stream_01":           0x9f708a32ed19dcd5,
	"stream_02":           0x5bdabcd09cdbb2c7,
	"stream_03":           0x7070dede8bcb9708,
	"stream_04":           0x65ad7b277fa8c15a,
	"stream_05":           0xdd8ee1548cb17499,
	"stream_06":           0xc7cacb210642dcc5,
	"stream_07":           0x9a26165530f20f78,
	"stream_08":           0x6e7eb650399a76f7,
	"stream_09":           0x09b98ad6711653a5,
	"stream_10":           0x95f3187876089026,
	"stream_11":           0x5387bed8d1791224,
	"stream_12":           0xacbd0c4997c34f9d,
	"stream_13":           0xf8be18bd23db00af,
	"stream_14":           0x0d5f3da846d43279,
}

// recordDigest hashes the first n records of p's stream at seed: each
// record's bubble, address and store flag, little-endian.
func recordDigest(p Profile, seed int64, n int) uint64 {
	h := fnv.New64a()
	rd := p.NewReader(seed)
	var buf [17]byte
	for i := 0; i < n; i++ {
		r, err := rd.Next()
		if err != nil {
			panic(err)
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.Bubble))
		binary.LittleEndian.PutUint64(buf[8:], r.Addr)
		buf[16] = 0
		if r.Write {
			buf[16] = 1
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func TestRecordStreamGoldens(t *testing.T) {
	for _, p := range All() {
		got := recordDigest(p, 1, goldenRecords)
		if want, ok := streamGoldens[p.Name]; !ok || got != want {
			t.Errorf("%s: record stream digest %#016x, want %#016x", p.Name, got, want)
		}
	}
}
