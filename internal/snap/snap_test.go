package snap

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var e Enc
	e.U8(7)
	e.U32(1 << 20)
	e.U64(1 << 50)
	e.I64(-42)
	e.Int(123456)
	e.F64(0.25)
	e.Bool(true)
	e.Bool(false)
	e.Str("hello")
	w.Section("AAAA", e.Bytes())
	w.Section("NODE", []byte{1})
	w.Section("NODE", []byte{2})
	w.Section("EMPT", nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p, ok := s.Section("AAAA")
	if !ok {
		t.Fatal("section AAAA missing")
	}
	d := NewDec(p)
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := d.U32(); got != 1<<20 {
		t.Errorf("U32 = %d", got)
	}
	if got := d.U64(); got != 1<<50 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != 123456 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); got != 0.25 {
		t.Errorf("F64 = %v", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := d.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
	nodes := s.Sections("NODE")
	if len(nodes) != 2 || nodes[0][0] != 1 || nodes[1][0] != 2 {
		t.Errorf("NODE sections = %v", nodes)
	}
	if p, ok := s.Section("EMPT"); !ok || len(p) != 0 {
		t.Errorf("EMPT = %v, %v", p, ok)
	}
	if _, ok := s.Section("MISS"); ok {
		t.Error("unexpected MISS section")
	}
}

// stream builds a small valid snapshot for the corruption tests.
func stream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("AAAA", []byte("some payload bytes"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsCorruption(t *testing.T) {
	good := stream(t)
	if _, err := Load(bytes.NewReader(good)); err != nil {
		t.Fatalf("control load failed: %v", err)
	}

	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "bad magic"},
		{"short header", func(b []byte) []byte { return b[:5] }, "bad magic"},
		{"unknown version", func(b []byte) []byte { b[8] = 99; return b }, "version"},
		{"payload bit flip", func(b []byte) []byte { b[25] ^= 1; return b }, "CRC"},
		{"crc bit flip", func(b []byte) []byte { b[len(b)-21] ^= 1; return b }, "CRC"},
		{"truncated mid-section", func(b []byte) []byte { return b[:20] }, "truncated"},
		{"missing end marker", func(b []byte) []byte { return b[:len(b)-16] }, "truncated"},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) }, "trailing"},
		{"end marker with payload", func(b []byte) []byte {
			var end bytes.Buffer
			(&Writer{w: &end}).Section(endTag, []byte("extra"))
			return append(b[:len(b)-16], end.Bytes()...)
		}, "end marker"},
		{"empty", func(b []byte) []byte { return nil }, "bad magic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := c.mut(append([]byte(nil), good...))
			_, err := Load(bytes.NewReader(b))
			if err == nil {
				t.Fatal("corrupt stream loaded without error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// FuzzSnapLoad feeds Load arbitrary streams, seeded with Writer streams
// and every truncation of them. Load must never panic, and a stream it
// accepts must be exactly what Writer emits for the sections it returned:
// no accepted byte may go unaccounted for.
func FuzzSnapLoad(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("AAAA", []byte("some payload bytes"))
	w.Section("NODE", []byte{1})
	w.Section("EMPT", nil)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	for _, good := range [][]byte{stream(f), buf.Bytes()} {
		for n := 0; n <= len(good); n++ {
			f.Add(good[:n])
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var out bytes.Buffer
		w := NewWriter(&out)
		for _, sec := range s.sections {
			w.Section(sec.Tag, sec.Payload)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), raw) {
			t.Fatalf("Load accepted %x, which writes back as %x", raw, out.Bytes())
		}
	})
}

func TestDecTruncation(t *testing.T) {
	d := NewDec([]byte{1, 2})
	d.U64()
	if d.Err() == nil {
		t.Fatal("short read not detected")
	}
	// Errors stick and later reads return zero values.
	if d.U32() != 0 || d.Str() != "" {
		t.Error("post-error reads not zero")
	}
	d2 := NewDec([]byte{0, 0})
	d2.U8()
	if err := d2.Finish(); err == nil {
		t.Error("undecoded trailing byte not detected")
	}
	d3 := NewDec([]byte{2})
	d3.Bool()
	if d3.Err() == nil {
		t.Error("invalid bool byte not detected")
	}
}
