package core

import (
	"math"
	"reflect"
	"testing"
)

// roundTrip encodes v self-contained and decodes it back.
func roundTrip(t *testing.T, v any) any {
	t.Helper()
	b, err := encodeSelfContained(nil, v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	out, err := decodeSelfContained(b)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return out
}

// TestBuiltinCodecsRoundTrip covers every built-in fast-path codec plus the
// gob fallback for an unregistered type.
func TestBuiltinCodecsRoundTrip(t *testing.T) {
	RegisterPayload(map[string]int{}) // gob fallback case
	cases := []any{
		true, false,
		int(-123456789), int32(-7), int64(1 << 40),
		uint32(0xdeadbeef), uint64(1<<63 + 5),
		float32(3.5), float64(math.Pi), math.Inf(-1),
		"hello, wire", "",
		[]byte{1, 2, 3}, []byte{},
		[]float64{1.5, -2.25, math.MaxFloat64}, []float64{},
		map[string]int{"a": 1},
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip of %#v (%T) produced %#v (%T)", v, v, got, got)
		}
	}
}

// TestCodecDecodeNeverAliases checks the decode-must-copy contract: mutating
// the wire bytes after decode must not change the decoded value (frame slabs
// are recycled after dispatch).
func TestCodecDecodeNeverAliases(t *testing.T) {
	for _, v := range []any{[]byte{9, 8, 7}, "abc", []float64{1, 2, 3}} {
		b, err := encodeSelfContained(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		out, err := decodeSelfContained(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			b[i] = 0xff
		}
		if !reflect.DeepEqual(out, v) {
			t.Fatalf("decoded %T aliases the wire buffer", v)
		}
	}
}

type flatPoint struct {
	A bool
	B int8
	C uint16
	D int32
	E float32
	F int
	G uint64
	H float64
}

// TestStructCodecRoundTrip exercises the reflect-cached flat-struct codec
// for both value and pointer payloads, plus its rejection cases.
func TestStructCodecRoundTrip(t *testing.T) {
	want := flatPoint{A: true, B: -5, C: 1000, D: -70000, E: 1.25, F: -1, G: 1 << 50, H: -math.Pi}

	c, err := NewStructCodec(flatPoint{})
	if err != nil {
		t.Fatal(err)
	}
	b := c.Encode(nil, want)
	if len(b) != 1+1+2+4+4+8+8+8 {
		t.Fatalf("flat encoding is %d bytes, want 36 (no padding)", len(b))
	}
	got, err := c.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.(flatPoint) != want {
		t.Fatalf("value round trip: got %+v want %+v", got, want)
	}
	if _, err := c.Decode(b[:len(b)-1]); err == nil {
		t.Fatal("short payload decoded without error")
	}

	pc, err := NewStructCodec(&flatPoint{})
	if err != nil {
		t.Fatal(err)
	}
	pb := pc.Encode(nil, &want)
	pgot, err := pc.Decode(pb)
	if err != nil {
		t.Fatal(err)
	}
	if *pgot.(*flatPoint) != want {
		t.Fatalf("pointer round trip: got %+v want %+v", pgot, want)
	}

	if _, err := NewStructCodec(struct{ S string }{}); err == nil {
		t.Fatal("string field accepted as fixed-width")
	}
	if _, err := NewStructCodec(struct{ x int }{}); err == nil {
		t.Fatal("unexported field accepted")
	}
	if _, err := NewStructCodec(42); err == nil {
		t.Fatal("non-struct accepted")
	}
}

type userPayload struct{ N uint32 }

type userCodec struct{}

func (userCodec) Encode(buf []byte, v any) []byte { return appendU32(buf, v.(userPayload).N) }
func (userCodec) Decode(b []byte) (any, error) {
	if len(b) != 4 {
		return nil, errCodecLen
	}
	return userPayload{N: le32(b)}, nil
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// TestRegisterCodecAssignsStableIDs checks user registration: a fresh type
// gets a user-range id, re-registration keeps it, and the registered codec
// is what the encode/decode path uses.
func TestRegisterCodecAssignsStableIDs(t *testing.T) {
	RegisterCodec(userPayload{}, userCodec{})
	id1 := loadCodecs().byType[reflect.TypeOf(userPayload{})].id
	if id1 < codecIDUserBase {
		t.Fatalf("user codec id %d below the user range", id1)
	}
	RegisterCodec(userPayload{}, userCodec{}) // re-register
	if id2 := loadCodecs().byType[reflect.TypeOf(userPayload{})].id; id2 != id1 {
		t.Fatalf("re-registration moved the wire id %d -> %d", id1, id2)
	}
	v := userPayload{N: 77}
	if got := roundTrip(t, v); got != v {
		t.Fatalf("user codec round trip: got %#v want %#v", got, v)
	}
}

// TestStreamGobRoundTrip drives the per-peer cached-stream path directly:
// multiple values through one encoder/decoder pair, descriptors sent once.
func TestStreamGobRoundTrip(t *testing.T) {
	type notFlat struct{ S string }
	RegisterPayload(notFlat{})
	g := &Graph{size: 2}
	g.initStreamGob()
	var sizes []int
	for i := 0; i < 3; i++ {
		b, err := g.encodePayload(nil, notFlat{S: "abcdefgh"}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(b))
		v, err := g.decodePayload(1, b)
		if err != nil {
			t.Fatal(err)
		}
		if v.(notFlat).S != "abcdefgh" {
			t.Fatalf("stream round trip %d: got %#v", i, v)
		}
	}
	// The first payload carries the type descriptors; the rest must not.
	if sizes[1] >= sizes[0] || sizes[1] != sizes[2] {
		t.Fatalf("stream-gob sizes %v: descriptors were not cached", sizes)
	}
	// A stream payload must not decode outside its stream.
	b, _ := g.encodePayload(nil, notFlat{S: "x"}, 1, 0)
	if _, err := decodeSelfContained(b); err == nil {
		t.Fatal("stream-gob payload decoded without the peer stream")
	}
}

// FuzzCodecDecode throws arbitrary bytes at the self-contained payload
// decoder: it must return a value or an error, never panic — it runs on the
// goroutine that delivered the frame, against remote-supplied bytes.
func FuzzCodecDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(codecIDGob), 1, 2, 3})
	f.Add([]byte{byte(codecIDStreamGob), 1, 2})
	f.Add([]byte{byte(codecIDF64Slice), 1, 2, 3}) // not a multiple of 8
	f.Add([]byte{byte(codecIDInt), 1})
	f.Add([]byte{byte(codecIDString), 'h', 'i'})
	f.Add([]byte{0xfe, 0, 0})
	if b, err := encodeSelfContained(nil, []float64{1, 2}); err == nil {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeSelfContained(append([]byte(nil), data...))
		if err == nil && data != nil && len(data) > 0 {
			_ = v
		}
	})
}
