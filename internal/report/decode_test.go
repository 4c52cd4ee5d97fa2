package report

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime"
	"strings"
	"testing"

	"chaffmec/internal/engine"
)

// decodeCorpus builds the envelope shapes the codec tests exercise:
// multi-report shards, a spec-less scalar-less report, an empty shard,
// non-finite/subnormal float bits, and the empty list.
func decodeCorpus(t testing.TB) [][]*Report {
	t.Helper()
	lean := buildPart(t, 0, 7, 7)
	lean.Spec = nil
	lean.Scalars = nil
	odd := buildPart(t, 0, 2, 2)
	track := engine.NewSeriesStatsAt(2, 0)
	for _, x := range [][]float64{{1e-310, math.Copysign(0, -1)}, {1e150, 5e-324}} {
		if err := track.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	odd.Series[SeriesTracking] = track.Snapshot()
	return [][]*Report{
		{buildPart(t, 0, 13, 29), buildPart(t, 13, 29, 29)},
		{lean},
		{buildPart(t, 4, 4, 9)},
		{odd},
		{},
	}
}

// TestDecodeReportsMatchesReadReports is the zero-copy decoder's hard
// guarantee: over the full codec corpus and every wire encoding, the
// in-memory decode is byte-identical (via the canonical JSON wire) to
// the streaming decode — at the blob's natural alignment AND with the
// blob shifted one byte, which flips every float block between the
// aliasing and the copying path.
func TestDecodeReportsMatchesReadReports(t *testing.T) {
	for _, reps := range decodeCorpus(t) {
		want := jsonWire(t, reps)
		for _, enc := range []Encoding{EncodingJSON, EncodingBinary, EncodingBinaryGzip} {
			var buf bytes.Buffer
			if err := WriteEncoded(&buf, reps, enc); err != nil {
				t.Fatal(err)
			}
			blob := buf.Bytes()

			streamed, err := ReadReports(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("%s: streaming decode: %v", enc, err)
			}
			if got := jsonWire(t, streamed); !bytes.Equal(got, want) {
				t.Fatalf("%s: streaming decode changed the JSON wire", enc)
			}

			shifted := make([]byte, len(blob)+1)
			copy(shifted[1:], blob)
			for name, data := range map[string][]byte{"aligned": blob, "shifted": shifted[1:]} {
				decoded, err := DecodeReports(data)
				if err != nil {
					t.Fatalf("%s/%s: DecodeReports: %v", enc, name, err)
				}
				if len(decoded) != len(reps) {
					t.Fatalf("%s/%s: %d reports decoded, want %d", enc, name, len(decoded), len(reps))
				}
				if got := jsonWire(t, decoded); !bytes.Equal(got, want) {
					t.Fatalf("%s/%s: zero-copy decode differs from streaming decode:\n got %s\nwant %s", enc, name, got, want)
				}
			}
		}
	}
}

// TestDecodeReportsCorruption mirrors the streaming decoder's
// corruption suite: every damaged blob the streaming path rejects, the
// in-memory path must reject too — never decode to a
// plausible-but-wrong envelope, never panic on truncation.
func TestDecodeReportsCorruption(t *testing.T) {
	reps := []*Report{buildPart(t, 0, 9, 9)}
	var buf bytes.Buffer
	if err := WriteReportsBinary(&buf, reps, false); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	for _, cut := range []int{0, 1, 3, 5, len(whole) / 2, len(whole) - 1} {
		if _, serr := ReadReports(bytes.NewReader(whole[:cut])); serr == nil {
			t.Fatalf("streaming accepted truncation at %d", cut)
		}
		if _, err := DecodeReports(whole[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// An absurd count field must be bounded, not allocated.
	huge := append([]byte{}, whole[:4]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := DecodeReports(huge); err == nil {
		t.Fatal("absurd report count accepted")
	}
	// A truncated gzip frame must surface the damage.
	var gz bytes.Buffer
	if err := WriteReportsBinary(&gz, reps, true); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReports(gz.Bytes()[:gz.Len()-4]); err == nil {
		t.Fatal("truncated gzip frame accepted")
	}
	// A gzip frame holds only the binary codec: JSON inside one is
	// refused by both decoders alike.
	var gzJSON bytes.Buffer
	zw := gzip.NewWriter(&gzJSON)
	if err := Write(zw, reps); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReports(bytes.NewReader(gzJSON.Bytes())); err == nil {
		t.Fatal("streaming accepted a gzip-framed JSON envelope")
	}
	if _, err := DecodeReports(gzJSON.Bytes()); err == nil {
		t.Fatal("gzip-framed JSON envelope accepted")
	}
	// Garbage that is neither magic nor JSON fails as JSON.
	if _, err := DecodeReports([]byte("CMXXnope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestDecodeReportsMergeSafe pins the property the coordinator's
// banked-shard path relies on: reports decoded zero-copy can be merged,
// and the merged report owns all of its memory — clobbering the source
// blob afterwards must not perturb a single merged bit.
func TestDecodeReportsMergeSafe(t *testing.T) {
	const total = 29
	parts := []*Report{buildPart(t, 0, 13, total), buildPart(t, 13, total, total)}
	var buf bytes.Buffer
	if err := WriteReportsBinary(&buf, parts, false); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	want, err := Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	wantWire := jsonWire(t, []*Report{want})

	decoded, err := DecodeReports(blob)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(decoded...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob { // simulate the mapping being released/reused
		blob[i] = 0xA5
	}
	if got := jsonWire(t, []*Report{merged}); !bytes.Equal(got, wantWire) {
		t.Fatalf("merge of zero-copy decoded shards leaked aliased memory:\n got %s\nwant %s", got, wantWire)
	}
}

// hugeCountBlob declares, in 31 bytes, one report holding one series of
// T=1 with 2^28 nodes — a decoder that sizes the node slice from the
// declared count before reading the nodes behind it asks for ~16 GiB.
const hugeCountBlob = "CMR1\x01" + "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
	"\x01\x00\x02\x00\x80\x80\x80\x80\x01"

// TestDecodersBoundDeclaredCounts: every count a CMR1 stream declares
// (nodes, slots, string and spec lengths, map sizes) is trusted only as
// far as the bytes behind it go. Each blob declares 2^28 of something
// and then ends; both decoders must reject it having allocated under
// 1 MiB.
func TestDecodersBoundDeclaredCounts(t *testing.T) {
	const huge = "\x80\x80\x80\x80\x01"  // uvarint 2^28 (maxDecodeLen)
	const hugeT = "\x80\x80\x80\x80\x02" // zigzag varint 2^28
	header := "CMR1\x01" + strings.Repeat("\x00", 16)
	blobs := map[string]string{
		"series nodes":  hugeCountBlob,
		"string length": "CMR1\x01" + huge,
		"spec length":   header + huge,
		"series count":  header + "\x00" + huge,
		"series slots":  header + "\x00\x01\x00" + hugeT + "\x00\x01\x00\x02",
		"scalar nodes":  header + "\x00\x00\x01\x00\x00" + huge,
	}
	if len(hugeCountBlob) != 31 {
		t.Fatalf("hugeCountBlob is %d bytes, want 31", len(hugeCountBlob))
	}
	decoders := map[string]func([]byte) error{
		"ReadReports": func(b []byte) error {
			_, err := ReadReports(bytes.NewReader(b))
			return err
		},
		"DecodeReports": func(b []byte) error {
			_, err := DecodeReports(b)
			return err
		},
	}
	for name, blob := range blobs {
		for dname, decode := range decoders {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decode([]byte(blob))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s/%s: truncated envelope accepted", name, dname)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("%s/%s: rejecting it allocated %d bytes, want < 1 MiB", name, dname, grew)
			}
		}
	}
}

// FuzzReadReports checks the two report decoders against each other on
// arbitrary bytes, seeded with every codec corpus envelope in every
// encoding plus hugeCountBlob: neither panics, both accept or both
// reject, and what they accept re-encodes to the same CMR1 bytes.
func FuzzReadReports(f *testing.F) {
	for _, reps := range decodeCorpus(f) {
		for _, enc := range []Encoding{EncodingJSON, EncodingBinary, EncodingBinaryGzip} {
			var buf bytes.Buffer
			if err := WriteEncoded(&buf, reps, enc); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte(hugeCountBlob))
	f.Fuzz(func(t *testing.T, data []byte) {
		streamed, serr := ReadReports(bytes.NewReader(data))
		decoded, derr := DecodeReports(data)
		if (serr == nil) != (derr == nil) {
			t.Fatalf("decoders disagree: ReadReports err = %v, DecodeReports err = %v", serr, derr)
		}
		if serr != nil {
			return
		}
		var a, b bytes.Buffer
		aerr := WriteReportsBinary(&a, streamed, false)
		berr := WriteReportsBinary(&b, decoded, false)
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("re-encode disagrees: streamed err = %v, decoded err = %v", aerr, berr)
		}
		if aerr == nil && !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("the decoders' reports re-encode to different bytes")
		}
	})
}
