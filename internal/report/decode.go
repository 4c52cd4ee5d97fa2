package report

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"chaffmec/internal/engine"
)

// DecodeReports decodes a report envelope held wholly in memory — the
// in-memory counterpart of ReadReports, detecting the same three
// formats (indented JSON, the CMR1 binary codec, its gzip frame) from
// the leading bytes. It exists for the large banked envelopes the
// coordinator replays from the artifact store: where ReadReports pulls
// every float64 through a bufio read, DecodeReports walks the buffer in
// place and, on little-endian platforms, returns series blocks that
// ALIAS data instead of copying them (see floats in decode_zerocopy.go;
// build with the chaffmec_purego tag to force the copying fallback).
//
// The aliasing makes the contract explicit: the returned reports may
// share memory with data, so the caller must keep data live and
// unmodified for as long as the reports are in use, and must treat the
// reports as read-only when data is (a store.GetMapped blob is mapped
// read-only — writing through an aliased series would fault). Consumers
// that deep-copy on use — engine.SeriesFromSnapshot, report.Merge — are
// safe by construction. Callers that cannot honor the lifetime rule
// should use ReadReports, which always returns owned memory.
func DecodeReports(data []byte) ([]*Report, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b { // gzip frame
		gz, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("report: gzip frame: %w", err)
		}
		// Inflate to a fresh buffer and decode that: the aliased series
		// then point into heap memory the reports keep alive, and the
		// frame's CRC/length trailer is verified by ReadAll reaching EOF.
		raw, err := io.ReadAll(gz)
		if err != nil {
			return nil, fmt.Errorf("report: gzip frame: %w", err)
		}
		if err := gz.Close(); err != nil {
			return nil, fmt.Errorf("report: gzip frame: %w", err)
		}
		// Only the binary codec is ever gzip-framed (ReadReports refuses
		// anything else inside the frame too).
		return decodeBinary(raw)
	}
	if len(data) >= 4 && [4]byte(data[:4]) == binaryMagic {
		return decodeBinary(data)
	}
	return Read(bytes.NewReader(data))
}

func decodeBinary(data []byte) ([]*Report, error) {
	if len(data) < 4 || [4]byte(data[:4]) != binaryMagic {
		return nil, fmt.Errorf("report: bad binary magic %q", data[:min(len(data), 4)])
	}
	d := &byteDecoder{data: data, off: 4} // past the magic
	n := d.length("report count")
	if d.err != nil {
		return nil, fmt.Errorf("report: parsing binary: %w", d.err)
	}
	reps := make([]*Report, 0, min(n, decodePresize))
	for i := 0; i < n && d.err == nil; i++ {
		reps = append(reps, d.report())
	}
	if d.err != nil {
		return nil, fmt.Errorf("report: parsing binary: %w", d.err)
	}
	return reps, nil
}

// byteDecoder mirrors binDecoder over an in-memory buffer, latching the
// first error. Strings and spec blobs are copied (they are small and
// outliving data matters more than saving the bytes); float blocks go
// through the platform floats path, which aliases when it can.
type byteDecoder struct {
	data []byte
	off  int
	err  error
}

// take claims the next n bytes, failing like io.ReadFull on truncation.
func (d *byteDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.data)-d.off {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	b := d.data[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

func (d *byteDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.err = decodeVarintErr(n)
		return 0
	}
	d.off += n
	return v
}

func (d *byteDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.err = decodeVarintErr(n)
		return 0
	}
	d.off += n
	return v
}

func decodeVarintErr(n int) error {
	if n == 0 {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("varint overflows 64 bits")
}

// length reads an unsigned count and bounds it by maxDecodeLen and by
// the bytes left: every counted element costs at least one byte, so a
// larger count is corrupt and is rejected before anything is sized
// from it.
func (d *byteDecoder) length(what string) int {
	v := d.uvarint()
	switch {
	case d.err != nil:
	case v > maxDecodeLen:
		d.err = fmt.Errorf("%s %d exceeds limit %d", what, v, maxDecodeLen)
	case v > uint64(len(d.data)-d.off):
		d.err = fmt.Errorf("%s %d exceeds the %d bytes left: %w", what, v, len(d.data)-d.off, io.ErrUnexpectedEOF)
	}
	return int(v)
}

func (d *byteDecoder) string() string {
	n := d.length("string length")
	if d.err != nil || n == 0 {
		return ""
	}
	return string(d.take(n))
}

func (d *byteDecoder) bytes() []byte {
	n := d.length("blob length")
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.take(n)
	if d.err != nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (d *byteDecoder) float() float64 {
	b := d.take(8)
	if d.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// floatBlock claims a T-float series block through the platform decode
// path (decode_zerocopy.go / decode_purego.go).
func (d *byteDecoder) floatBlock(n int) []float64 {
	b := d.take(8 * n)
	if d.err != nil {
		return nil
	}
	return decodeFloats(b, n)
}

func (d *byteDecoder) report() *Report {
	rep := &Report{
		Name:   d.string(),
		Kind:   d.string(),
		Stream: d.string(),
	}
	rep.Seed = d.varint()
	rep.Horizon = int(d.varint())
	rep.TotalRuns = int(d.varint())
	rep.RunStart = int(d.varint())
	rep.RunCount = int(d.varint())
	rep.ElapsedMS = d.float()
	rep.Spec = d.bytes()

	if n := d.length("series count"); n > 0 && d.err == nil {
		rep.Series = make(map[string]engine.SeriesSnapshot, n)
		for i := 0; i < n && d.err == nil; i++ {
			name := d.string()
			rep.Series[name] = d.series()
		}
	}
	if n := d.length("scalars count"); n > 0 && d.err == nil {
		rep.Scalars = make(map[string]engine.ScalarSnapshot, n)
		for i := 0; i < n && d.err == nil; i++ {
			name := d.string()
			rep.Scalars[name] = d.scalar()
		}
	}
	return rep
}

func (d *byteDecoder) series() engine.SeriesSnapshot {
	snap := engine.SeriesSnapshot{T: int(d.varint()), Next: d.varint()}
	if d.err == nil && (snap.T < 0 || snap.T > maxDecodeLen) {
		d.err = fmt.Errorf("series length %d out of range", snap.T)
		return snap
	}
	nodes := d.length("node count")
	if d.err != nil || nodes == 0 {
		return snap
	}
	snap.Nodes = make([]engine.StatNode, nodes)
	pos := d.varint() // first node's start; the rest follow contiguously
	for i := range snap.Nodes {
		n := d.varint()
		snap.Nodes[i].Start = pos
		snap.Nodes[i].N = n
		pos += n
	}
	for i := range snap.Nodes {
		snap.Nodes[i].Mean = d.floatBlock(snap.T)
		snap.Nodes[i].M2 = d.floatBlock(snap.T)
	}
	return snap
}

func (d *byteDecoder) scalar() engine.ScalarSnapshot {
	snap := engine.ScalarSnapshot{Next: d.varint()}
	nodes := d.length("node count")
	if d.err != nil || nodes == 0 {
		return snap
	}
	snap.Nodes = make([]engine.ScalarStatNode, nodes)
	pos := d.varint()
	for i := range snap.Nodes {
		n := d.varint()
		snap.Nodes[i].Start = pos
		snap.Nodes[i].N = n
		pos += n
	}
	for i := range snap.Nodes {
		snap.Nodes[i].Mean = d.float()
		snap.Nodes[i].M2 = d.float()
	}
	return snap
}
