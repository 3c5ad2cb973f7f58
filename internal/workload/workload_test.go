package workload

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDataDeterministic(t *testing.T) {
	a := Data(7, 1000)
	b := Data(7, 1000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different data")
	}
	c := Data(8, 1000)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestReaderMatchesData(t *testing.T) {
	want := Data(3, 10_000)
	got, err := io.ReadAll(NewReader(3, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reader stream differs from Data")
	}
}

func TestReaderChunkingIndependence(t *testing.T) {
	want := Data(5, 5000)
	r := NewReader(5, 5000)
	rng := rand.New(rand.NewSource(1))
	var got []byte
	buf := make([]byte, 700)
	for {
		n, err := r.Read(buf[:rng.Intn(len(buf))+1])
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ragged reads changed the stream")
	}
}

func TestVerifierAcceptsCorrectStream(t *testing.T) {
	const n = 4096
	v := NewVerifier(9, n)
	if _, err := io.Copy(v, NewReader(9, n)); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifierRejectsCorruption(t *testing.T) {
	data := Data(9, 1000)
	data[500] ^= 1
	v := NewVerifier(9, 1000)
	_, err := v.Write(data)
	if err == nil {
		t.Fatal("verifier accepted corrupted stream")
	}
}

func TestVerifierRejectsTruncation(t *testing.T) {
	v := NewVerifier(9, 1000)
	if _, err := v.Write(Data(9, 500)); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err == nil {
		t.Fatal("verifier accepted truncated stream")
	}
}

func TestVerifierRejectsOverrun(t *testing.T) {
	v := NewVerifier(9, 100)
	if _, err := v.Write(Data(9, 200)); err == nil {
		t.Fatal("verifier accepted overlong stream")
	}
}

func TestSizeSweep(t *testing.T) {
	full := SizeSweep(1)
	if len(full) != 4 || full[0] != GB || full[3] != 8*GB {
		t.Fatalf("SizeSweep(1) = %v", full)
	}
	scaled := SizeSweep(8)
	if scaled[3] != GB {
		t.Fatalf("SizeSweep(8)[3] = %d, want 1GB", scaled[3])
	}
	if got := SizeSweep(0); got[0] != GB {
		t.Fatalf("SizeSweep(0) should clamp to scale 1, got %v", got)
	}
}

func TestSlowNodePlan(t *testing.T) {
	p := SlowNodePlan(3, 50)
	if len(p) != 3 || p[0] != 50 || p[2] != 50 {
		t.Fatalf("plan = %v", p)
	}
	if len(SlowNodePlan(0, 50)) != 0 {
		t.Fatal("k=0 plan not empty")
	}
}

// Property: reader output equals Data for any seed/size, and verifier
// round-trips.
func TestQuickReaderVerifier(t *testing.T) {
	f := func(seed int64, sizeRaw uint16) bool {
		n := int64(sizeRaw) % 3000
		data := Data(seed, int(n))
		got, err := io.ReadAll(NewReader(seed, n))
		if err != nil || !bytes.Equal(got, data) {
			return false
		}
		v := NewVerifier(seed, n)
		if _, err := v.Write(data); err != nil {
			return false
		}
		return v.Close() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refWord is the stream's definition written out literally: word i of
// seed s is splitmix64(mix(s) + (i+1)·gamma), little-endian.
func refWord(seed int64, i uint64) uint64 {
	z := uint64(seed)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	z += (i + 1) * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func TestDataMatchesDefinition(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, 1 << 40} {
		got := Data(seed, 803)
		for off := range got {
			w := refWord(seed, uint64(off)/8)
			if want := byte(w >> (8 * (off % 8))); got[off] != want {
				t.Fatalf("seed %d byte %d = %02x, want %02x", seed, off, got[off], want)
			}
		}
	}
}

// TestDataGolden pins the seed→bytes mapping: a change here changes
// every payload the benchmarks and tests generate.
func TestDataGolden(t *testing.T) {
	if got, want := hex.EncodeToString(Data(1, 16)), "72d7c2dd3080efbf47aaf282e42c555f"; got != want {
		t.Fatalf("Data(1, 16) = %s, want %s", got, want)
	}
	if got, want := crc32.ChecksumIEEE(Data(42, 1<<20)), uint32(0xeb39472a); got != want {
		t.Fatalf("crc32(Data(42, 1MiB)) = %#08x, want %#08x", got, want)
	}
}

// The stream is random-access: after any ragged prefix of off bytes,
// the reader's remaining bytes are exactly Data[off:].
func TestReaderRandomOffset(t *testing.T) {
	const n = 20_000
	const seed = 13
	want := Data(seed, n)
	rng := rand.New(rand.NewSource(2))
	buf := make([]byte, 100)
	for trial := 0; trial < 200; trial++ {
		off := rng.Intn(n + 1)
		r := NewReader(seed, n)
		for skipped := 0; skipped < off; {
			k, err := r.Read(buf[:min(rng.Intn(len(buf))+1, off-skipped)])
			if err != nil {
				t.Fatal(err)
			}
			skipped += k
		}
		rest, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rest, want[off:]) {
			t.Fatalf("after %d ragged bytes the stream differs from Data[%d:]", off, off)
		}
	}
}

// Keying the seed through mix keeps neighbouring seeds from being the
// same stream shifted by a word.
func TestSeedsNotShifted(t *testing.T) {
	for s := int64(0); s < 256; s++ {
		if bytes.Equal(Data(s, 64)[8:], Data(s+1, 64)[:56]) {
			t.Fatalf("seed %d+1 is seed %d shifted by one word", s, s)
		}
	}
}

func TestVerifierReportsMismatchOffset(t *testing.T) {
	const n = 20_000
	data := Data(9, n)
	v := NewVerifier(9, n)
	if _, err := v.Write(data[:3]); err != nil {
		t.Fatal(err)
	}
	data[12_345] ^= 0xff
	_, err := v.Write(data[3:])
	want := fmt.Sprintf("workload: byte mismatch at offset 12345: got %02x want %02x",
		data[12_345], data[12_345]^0xff)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if _, again := v.Write(data[n-1:]); again != err {
		t.Fatalf("error not sticky: %v", again)
	}
}

func TestVerifierWriteZeroAllocs(t *testing.T) {
	const chunk = 64 << 10
	const runs = 20
	data := Data(11, chunk*(runs+1)) // AllocsPerRun adds one warm-up call
	v := NewVerifier(11, int64(len(data)))
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := v.Write(data[next : next+chunk]); err != nil {
			t.Fatal(err)
		}
		next += chunk
	})
	if allocs != 0 {
		t.Fatalf("Verifier.Write of 64 KiB: %v allocs, want 0", allocs)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkData gives the generator its own MB/s row.
func BenchmarkData(b *testing.B) {
	const n = 16 << 20
	b.SetBytes(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = Data(int64(i), n)
	}
}

var sink []byte
