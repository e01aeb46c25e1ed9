// Package snap is the checkpoint container format shared by the fabric
// core and the control planes: a magic header, a format version, and a
// sequence of length-prefixed, CRC-guarded sections closed by an explicit
// end marker.
//
// The format is deliberately dumb. Sections are opaque byte payloads
// identified by a 4-byte tag; the fabric decides what goes in each and the
// Enc/Dec helpers below give both sides a shared little-endian vocabulary.
// Load validates the ENTIRE stream — magic, version, every section's
// bounds and CRC, and the end marker — before returning anything, so a
// caller that only mutates state after a successful Load can guarantee
// that a truncated or corrupted checkpoint leaves the original state
// untouched.
//
// Versioning policy: Version covers the container layout and every section
// payload layout. Any incompatible change to either bumps it, and Load
// rejects mismatched files outright — there is no cross-version migration;
// a checkpoint is a resume token for the binary (and spec) that wrote it,
// not an archival format.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Magic identifies a snapshot stream.
const Magic = "NEGOSNAP"

// Version is the current container format version. Restore rejects any
// other value.
const Version = 2

// endTag closes a stream; trailing bytes after it are an error.
const endTag = "END."

// Writer emits a snapshot stream section by section. Errors stick: the
// first write failure is returned by Close and all later calls are no-ops.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter starts a snapshot stream on w by writing the header.
func NewWriter(w io.Writer) *Writer {
	sw := &Writer{w: w}
	var hdr [12]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	sw.write(hdr[:])
	return sw
}

func (sw *Writer) write(b []byte) {
	if sw.err != nil {
		return
	}
	_, sw.err = sw.w.Write(b)
}

// Section appends one tagged section. The tag must be exactly 4 bytes;
// repeated tags are allowed (e.g. one NODE section per node).
func (sw *Writer) Section(tag string, payload []byte) {
	if len(tag) != 4 {
		panic(fmt.Sprintf("snap: section tag %q must be 4 bytes", tag))
	}
	var hdr [12]byte
	copy(hdr[:4], tag)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(len(payload)))
	sw.write(hdr[:])
	sw.write(payload)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	sw.write(crc[:])
}

// Close writes the end marker and returns the first error encountered.
func (sw *Writer) Close() error {
	sw.Section(endTag, nil)
	return sw.err
}

// Section is one validated section of a loaded snapshot.
type Section struct {
	Tag     string
	Payload []byte
}

// Snapshot is a fully validated snapshot stream held in memory.
type Snapshot struct {
	sections []Section
}

// Load reads and validates an entire snapshot stream: magic, version,
// every section's length bound and CRC, the end marker (empty, as Close
// writes it), and the absence of trailing bytes. It returns an error — and no partial data — on any
// corruption, so callers can defer all state mutation until Load succeeds.
func Load(r io.Reader) (*Snapshot, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snap: read: %w", err)
	}
	if len(raw) < 12 || string(raw[:8]) != Magic {
		return nil, fmt.Errorf("snap: not a snapshot (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != Version {
		return nil, fmt.Errorf("snap: unknown snapshot format version %d (this build reads version %d)", v, Version)
	}
	s := &Snapshot{}
	off := 12
	for {
		if off+16 > len(raw) {
			return nil, fmt.Errorf("snap: truncated snapshot: section header missing at byte %d", off)
		}
		tag := string(raw[off : off+4])
		n := binary.LittleEndian.Uint64(raw[off+4 : off+12])
		off += 12
		if n > uint64(len(raw)-off) || off+int(n)+4 > len(raw) {
			return nil, fmt.Errorf("snap: truncated snapshot: section %q declares %d bytes, %d remain", tag, n, len(raw)-off)
		}
		payload := raw[off : off+int(n)]
		off += int(n)
		crc := binary.LittleEndian.Uint32(raw[off : off+4])
		off += 4
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, fmt.Errorf("snap: section %q fails CRC (want %08x, computed %08x): corrupt snapshot", tag, crc, got)
		}
		if tag == endTag {
			if n != 0 {
				return nil, fmt.Errorf("snap: end marker carries %d payload bytes", n)
			}
			if off != len(raw) {
				return nil, fmt.Errorf("snap: %d trailing bytes after end marker", len(raw)-off)
			}
			return s, nil
		}
		s.sections = append(s.sections, Section{Tag: tag, Payload: payload})
	}
}

// Section returns the first section with the tag.
func (s *Snapshot) Section(tag string) ([]byte, bool) {
	for _, sec := range s.sections {
		if sec.Tag == tag {
			return sec.Payload, true
		}
	}
	return nil, false
}

// Sections returns every section with the tag, in stream order.
func (s *Snapshot) Sections(tag string) [][]byte {
	var out [][]byte
	for _, sec := range s.sections {
		if sec.Tag == tag {
			out = append(out, sec.Payload)
		}
	}
	return out
}

// Enc builds a section payload from little-endian primitives.
type Enc struct {
	b []byte
}

// Bytes returns the accumulated payload.
func (e *Enc) Bytes() []byte { return e.b }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.b = append(e.b, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// I64 appends an int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 by bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a 0/1 byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Dec reads a section payload written by Enc. Errors stick: after the
// first failure every read returns the zero value, and Err (or Finish)
// reports what went wrong, so decoders can read a whole layout linearly
// and check once.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{b: payload} }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.err = fmt.Errorf("snap: truncated payload: want %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int64 into an int.
func (d *Dec) Int() int { return int(d.I64()) }

// F64 reads a float64 by bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a strict 0/1 byte.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("snap: invalid bool at offset %d", d.off-1)
		}
		return false
	}
}

// Count reads a U32 element count that the decoder is about to allocate or
// loop for, each element taking at least minElemBytes of the payload. A
// count the remaining payload cannot hold sets the sticky error and
// returns 0, so a corrupt count (a CRC guards bytes, not meaning) never
// sizes an allocation or a loop beyond the payload it came with.
func (d *Dec) Count(minElemBytes int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if rem := len(d.b) - d.off; int64(n) > int64(rem/minElemBytes) {
		d.err = fmt.Errorf("snap: count %d at offset %d needs at least %d bytes per element, %d remain", n, d.off-4, minElemBytes, rem)
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.U32()
	p := d.take(int(n))
	return string(p)
}

// Err returns the first decode error.
func (d *Dec) Err() error { return d.err }

// Finish returns the first decode error, or an error if undecoded bytes
// remain — the payload-level analogue of the stream's end marker.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("snap: %d undecoded payload bytes", len(d.b)-d.off)
	}
	return nil
}
