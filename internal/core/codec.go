package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
)

// Codec converts one payload value to and from wire bytes. Encode appends
// the encoding of v to buf and returns the extended slice (append-style, so
// fast-path codecs are allocation-free into a pooled buffer); Decode parses
// b back into the concrete value. Decode results must never alias b — the
// frame buffer is recycled after dispatch — and must return an error (never
// panic) on malformed input: decoders face remote-supplied bytes.
//
// Codecs registered via RegisterCodec are keyed by the payload's concrete
// type and identified on the wire by a one-byte id assigned in registration
// order, so all ranks must register the same codecs in the same order
// before MakeExecutable (SPMD, like gob.Register).
type Codec interface {
	Encode(buf []byte, v any) []byte
	Decode(b []byte) (any, error)
}

// Wire codec ids. Every activation payload starts with one id byte. Ids
// 0 and 1 are the gob fallbacks; 2..31 are the built-in fast paths; user
// codecs are assigned from codecIDUserBase up in registration order.
const (
	codecIDGob       byte = 0 // standalone gob stream (self-contained)
	codecIDStreamGob byte = 1 // per-peer cached-stream gob (descriptors sent once)
	codecIDBool      byte = 2
	codecIDInt       byte = 3
	codecIDInt32     byte = 4
	codecIDInt64     byte = 5
	codecIDUint32    byte = 6
	codecIDUint64    byte = 7
	codecIDFloat32   byte = 8
	codecIDFloat64   byte = 9
	codecIDString    byte = 10
	codecIDBytes     byte = 11
	codecIDF64Slice  byte = 12
	codecIDUserBase  byte = 32
)

// codecBinding pairs a codec with its wire id.
type codecBinding struct {
	id byte
	c  Codec
}

// codecTable is an immutable snapshot of the codec registry. Lookups on the
// send/receive hot paths load it through one atomic pointer — no lock, no
// contention; registration copies and swaps (copy-on-write, setup-time only).
type codecTable struct {
	byType map[reflect.Type]codecBinding
	byID   [256]Codec
	nextID byte
}

var (
	codecRegMu sync.Mutex
	codecTab   atomic.Pointer[codecTable]
)

func loadCodecs() *codecTable { return codecTab.Load() }

func init() {
	t := &codecTable{byType: map[reflect.Type]codecBinding{}, nextID: codecIDUserBase}
	reg := func(sample any, id byte, c Codec) {
		t.byType[reflect.TypeOf(sample)] = codecBinding{id: id, c: c}
		t.byID[id] = c
	}
	reg(false, codecIDBool, boolCodec{})
	reg(int(0), codecIDInt, intCodec{})
	reg(int32(0), codecIDInt32, int32Codec{})
	reg(int64(0), codecIDInt64, int64Codec{})
	reg(uint32(0), codecIDUint32, uint32Codec{})
	reg(uint64(0), codecIDUint64, uint64Codec{})
	reg(float32(0), codecIDFloat32, float32Codec{})
	reg(float64(0), codecIDFloat64, float64Codec{})
	reg("", codecIDString, stringCodec{})
	reg([]byte(nil), codecIDBytes, bytesCodec{})
	reg([]float64(nil), codecIDF64Slice, f64SliceCodec{})
	codecTab.Store(t)
}

// RegisterCodec installs a fast-path codec for sample's concrete type,
// replacing the gob fallback for that type on the wire. Must be called in
// the same order on every rank (the wire id is assigned sequentially),
// before MakeExecutable. Re-registering a type swaps its codec in place and
// keeps its id.
func RegisterCodec(sample any, c Codec) {
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("ttg: RegisterCodec on a nil value")
	}
	codecRegMu.Lock()
	defer codecRegMu.Unlock()
	old := codecTab.Load()
	nt := &codecTable{byType: make(map[reflect.Type]codecBinding, len(old.byType)+1), byID: old.byID, nextID: old.nextID}
	for k, v := range old.byType {
		nt.byType[k] = v
	}
	if prev, ok := nt.byType[t]; ok {
		nt.byType[t] = codecBinding{id: prev.id, c: c}
		nt.byID[prev.id] = c
	} else {
		if nt.nextID == 0 { // wrapped past 255
			panic("ttg: codec id space exhausted")
		}
		nt.byType[t] = codecBinding{id: nt.nextID, c: c}
		nt.byID[nt.nextID] = c
		nt.nextID++
	}
	codecTab.Store(nt)
}

// RegisterFlatPayload registers sample's type for distributed serialization
// with a reflect-cached binary codec: every exported field must be a
// fixed-width scalar (bool, sized ints/uints, floats). It subsumes
// RegisterPayload for such types (the type is also gob-registered, so it
// still works nested inside gob-encoded payloads) and makes the wire path
// allocation-free on encode. Panics if the type is not flat.
func RegisterFlatPayload(sample any) {
	c, err := NewStructCodec(sample)
	if err != nil {
		panic("ttg: RegisterFlatPayload: " + err.Error())
	}
	gob.Register(sample)
	RegisterCodec(sample, c)
}

// ---------------------------------------------------------------------------
// Built-in scalar/slice codecs. All little-endian, all length-checked on
// decode, none alias the input.

func appendU64(buf []byte, u uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	return append(buf, b[:]...)
}

func appendU32(buf []byte, u uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], u)
	return append(buf, b[:]...)
}

var errCodecLen = errors.New("ttg: payload length does not match codec")

type boolCodec struct{}

func (boolCodec) Encode(buf []byte, v any) []byte {
	if v.(bool) {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func (boolCodec) Decode(b []byte) (any, error) {
	if len(b) != 1 {
		return nil, errCodecLen
	}
	return b[0] != 0, nil
}

type intCodec struct{}

func (intCodec) Encode(buf []byte, v any) []byte { return appendU64(buf, uint64(v.(int))) }
func (intCodec) Decode(b []byte) (any, error) {
	if len(b) != 8 {
		return nil, errCodecLen
	}
	return int(int64(binary.LittleEndian.Uint64(b))), nil
}

type int32Codec struct{}

func (int32Codec) Encode(buf []byte, v any) []byte { return appendU32(buf, uint32(v.(int32))) }
func (int32Codec) Decode(b []byte) (any, error) {
	if len(b) != 4 {
		return nil, errCodecLen
	}
	return int32(binary.LittleEndian.Uint32(b)), nil
}

type int64Codec struct{}

func (int64Codec) Encode(buf []byte, v any) []byte { return appendU64(buf, uint64(v.(int64))) }
func (int64Codec) Decode(b []byte) (any, error) {
	if len(b) != 8 {
		return nil, errCodecLen
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

type uint32Codec struct{}

func (uint32Codec) Encode(buf []byte, v any) []byte { return appendU32(buf, v.(uint32)) }
func (uint32Codec) Decode(b []byte) (any, error) {
	if len(b) != 4 {
		return nil, errCodecLen
	}
	return binary.LittleEndian.Uint32(b), nil
}

type uint64Codec struct{}

func (uint64Codec) Encode(buf []byte, v any) []byte { return appendU64(buf, v.(uint64)) }
func (uint64Codec) Decode(b []byte) (any, error) {
	if len(b) != 8 {
		return nil, errCodecLen
	}
	return binary.LittleEndian.Uint64(b), nil
}

type float32Codec struct{}

func (float32Codec) Encode(buf []byte, v any) []byte {
	return appendU32(buf, math.Float32bits(v.(float32)))
}
func (float32Codec) Decode(b []byte) (any, error) {
	if len(b) != 4 {
		return nil, errCodecLen
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(b)), nil
}

type float64Codec struct{}

func (float64Codec) Encode(buf []byte, v any) []byte {
	return appendU64(buf, math.Float64bits(v.(float64)))
}
func (float64Codec) Decode(b []byte) (any, error) {
	if len(b) != 8 {
		return nil, errCodecLen
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

type stringCodec struct{}

func (stringCodec) Encode(buf []byte, v any) []byte { return append(buf, v.(string)...) }
func (stringCodec) Decode(b []byte) (any, error)    { return string(b), nil }

type bytesCodec struct{}

func (bytesCodec) Encode(buf []byte, v any) []byte { return append(buf, v.([]byte)...) }
func (bytesCodec) Decode(b []byte) (any, error) {
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// f64SliceCodec ships []float64 slabs raw: 8 bytes per element, length
// implied by the payload size.
type f64SliceCodec struct{}

func (f64SliceCodec) Encode(buf []byte, v any) []byte {
	s := v.([]float64)
	for _, f := range s {
		buf = appendU64(buf, math.Float64bits(f))
	}
	return buf
}

func (f64SliceCodec) Decode(b []byte) (any, error) {
	if len(b)%8 != 0 {
		return nil, errCodecLen
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Flat-struct codec: a reflect-cached fixed-width binary layout for structs
// whose exported fields are all scalars.

type structField struct {
	idx  int
	kind reflect.Kind
	size int
}

type structCodec struct {
	typ    reflect.Type // the struct type
	ptr    bool         // payloads are *T rather than T
	fields []structField
	size   int
}

// NewStructCodec builds a binary codec for the concrete type of sample (a
// struct or pointer-to-struct). Every field must be exported and of a
// fixed-width scalar kind; the wire layout is the fields in declaration
// order, little-endian, with no padding.
func NewStructCodec(sample any) (Codec, error) {
	t := reflect.TypeOf(sample)
	if t == nil {
		return nil, errors.New("nil sample")
	}
	sc := &structCodec{typ: t}
	if t.Kind() == reflect.Pointer {
		sc.ptr = true
		sc.typ = t.Elem()
	}
	if sc.typ.Kind() != reflect.Struct {
		return nil, fmt.Errorf("%s is not a struct", t)
	}
	for i := 0; i < sc.typ.NumField(); i++ {
		f := sc.typ.Field(i)
		if !f.IsExported() {
			return nil, fmt.Errorf("%s.%s is unexported", sc.typ, f.Name)
		}
		var size int
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Uint8:
			size = 1
		case reflect.Int16, reflect.Uint16:
			size = 2
		case reflect.Int32, reflect.Uint32, reflect.Float32:
			size = 4
		case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Float64:
			size = 8
		default:
			return nil, fmt.Errorf("%s.%s: kind %s is not fixed-width", sc.typ, f.Name, f.Type.Kind())
		}
		sc.fields = append(sc.fields, structField{idx: i, kind: f.Type.Kind(), size: size})
		sc.size += size
	}
	return sc, nil
}

func (sc *structCodec) Encode(buf []byte, v any) []byte {
	rv := reflect.ValueOf(v)
	if sc.ptr {
		rv = rv.Elem()
	}
	for _, f := range sc.fields {
		fv := rv.Field(f.idx)
		var u uint64
		switch f.kind {
		case reflect.Bool:
			if fv.Bool() {
				u = 1
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			u = uint64(fv.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			u = fv.Uint()
		case reflect.Float32:
			u = uint64(math.Float32bits(float32(fv.Float())))
		case reflect.Float64:
			u = math.Float64bits(fv.Float())
		}
		switch f.size {
		case 1:
			buf = append(buf, byte(u))
		case 2:
			buf = append(buf, byte(u), byte(u>>8))
		case 4:
			buf = appendU32(buf, uint32(u))
		default:
			buf = appendU64(buf, u)
		}
	}
	return buf
}

func (sc *structCodec) Decode(b []byte) (any, error) {
	if len(b) != sc.size {
		return nil, errCodecLen
	}
	pv := reflect.New(sc.typ)
	rv := pv.Elem()
	off := 0
	for _, f := range sc.fields {
		var u uint64
		switch f.size {
		case 1:
			u = uint64(b[off])
		case 2:
			u = uint64(b[off]) | uint64(b[off+1])<<8
		case 4:
			u = uint64(binary.LittleEndian.Uint32(b[off:]))
		default:
			u = binary.LittleEndian.Uint64(b[off:])
		}
		off += f.size
		fv := rv.Field(f.idx)
		switch f.kind {
		case reflect.Bool:
			fv.SetBool(u != 0)
		case reflect.Int, reflect.Int64:
			fv.SetInt(int64(u))
		case reflect.Int8:
			fv.SetInt(int64(int8(u)))
		case reflect.Int16:
			fv.SetInt(int64(int16(u)))
		case reflect.Int32:
			fv.SetInt(int64(int32(u)))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(u)
		case reflect.Float32:
			fv.SetFloat(float64(math.Float32frombits(uint32(u))))
		case reflect.Float64:
			fv.SetFloat(math.Float64frombits(u))
		}
	}
	if sc.ptr {
		return pv.Interface(), nil
	}
	return rv.Interface(), nil
}

// ---------------------------------------------------------------------------
// Gob fallbacks and the per-graph payload encode/decode entry points.

// streamEnc is one destination's cached gob stream: the encoder persists
// across sends, so type descriptors cross the wire exactly once per peer;
// the buffer is reset per payload and only ever carries that payload's
// delta bytes.
type streamEnc struct {
	buf bytes.Buffer
	enc *gob.Encoder
}

// streamDec mirrors streamEnc on the receive side, one per source peer.
// Under the rank's receive lock, on the goroutine that delivered the frame,
// each stream-gob payload is fed into the buffer and decoded as exactly one
// value; stream-gob payloads from one peer must be decoded in wire order
// (the in-order link guarantees this).
type streamDec struct {
	buf bytes.Buffer
	dec *gob.Decoder
}

// initStreamGob builds the per-peer cached gob streams. Only the non-FT
// direct path uses them: fault-tolerant payloads must be self-contained
// because logged bytes are replayed and re-routed to arbitrary ranks, where
// a mid-stream gob delta would be undecodable.
func (g *Graph) initStreamGob() {
	g.gobEnc = make([]*streamEnc, g.size)
	g.gobDec = make([]*streamDec, g.size)
	for i := 0; i < g.size; i++ {
		se := &streamEnc{}
		se.enc = gob.NewEncoder(&se.buf)
		g.gobEnc[i] = se
		sd := &streamDec{}
		sd.dec = gob.NewDecoder(&sd.buf)
		g.gobDec[i] = sd
	}
}

// encodePayload appends one payload (codec id byte + encoding of v) to buf.
// A registered fast-path codec wins; otherwise gob — the per-destination
// cached stream when dst >= 0 and the graph has stream state (the caller
// must then hold dst's batch buffer so stream bytes hit the wire in encode
// order), else a self-contained standalone gob encoding. shard indexes the
// codec counters (worker HTSlot).
func (g *Graph) encodePayload(buf []byte, v any, dst int, shard int) ([]byte, error) {
	if v != nil {
		if bind, ok := loadCodecs().byType[reflect.TypeOf(v)]; ok {
			if g.mx != nil {
				g.mx.codecFast.Inc(shard)
			}
			buf = append(buf, bind.id)
			return bind.c.Encode(buf, v), nil
		}
	}
	if g.mx != nil {
		g.mx.codecGob.Inc(shard)
	}
	// The gob tails live in separate functions so &v is only taken there:
	// inline, it would move v to the heap on every call, including the
	// fast path above (one boxing alloc per activation).
	if dst >= 0 && g.gobEnc != nil {
		return g.encodeStreamGob(buf, v, dst)
	}
	return appendStandaloneGob(buf, v)
}

// encodeStreamGob appends v through dst's cached gob stream.
func (g *Graph) encodeStreamGob(buf []byte, v any, dst int) ([]byte, error) {
	se := g.gobEnc[dst]
	se.buf.Reset()
	if err := se.enc.Encode(&v); err != nil {
		return nil, err
	}
	buf = append(buf, codecIDStreamGob)
	return append(buf, se.buf.Bytes()...), nil
}

// encodeSelfContained appends a payload decodable with no peer stream state
// (codec fast path or standalone gob) — the form the FT replay and seed
// logs require.
func encodeSelfContained(buf []byte, v any) ([]byte, error) {
	if v != nil {
		if bind, ok := loadCodecs().byType[reflect.TypeOf(v)]; ok {
			buf = append(buf, bind.id)
			return bind.c.Encode(buf, v), nil
		}
	}
	return appendStandaloneGob(buf, v)
}

// appendStandaloneGob appends a self-contained single-value gob encoding.
func appendStandaloneGob(buf []byte, v any) ([]byte, error) {
	var bb bytes.Buffer
	enc := gob.NewEncoder(&bb)
	if err := enc.Encode(&v); err != nil {
		return nil, err
	}
	buf = append(buf, codecIDGob)
	return append(buf, bb.Bytes()...), nil
}

// decodePayload decodes one received payload from src. Runs under the rank's
// receive lock only (the stream decoders are single-threaded by
// construction).
// Results never alias b.
func (g *Graph) decodePayload(src int, b []byte) (any, error) {
	if len(b) == 0 {
		return nil, errors.New("empty payload")
	}
	if b[0] == codecIDStreamGob {
		if g.gobDec == nil || src < 0 || src >= len(g.gobDec) {
			return nil, fmt.Errorf("stream-codec payload outside a peer stream (src %d)", src)
		}
		sd := g.gobDec[src]
		sd.buf.Write(b[1:])
		var v any
		if err := sd.dec.Decode(&v); err != nil {
			sd.buf.Reset() // poisoned stream; the graph aborts on this error
			return nil, err
		}
		if sd.buf.Len() != 0 {
			n := sd.buf.Len()
			sd.buf.Reset()
			return nil, fmt.Errorf("%d trailing bytes after stream-gob payload from rank %d", n, src)
		}
		return v, nil
	}
	return decodeSelfContained(b)
}

// decodeSelfContained decodes a payload produced by encodeSelfContained or
// a fast-path codec. Usable from any goroutine (replay paths).
func decodeSelfContained(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, errors.New("empty payload")
	}
	id := b[0]
	switch id {
	case codecIDGob:
		dec := gob.NewDecoder(bytes.NewReader(b[1:]))
		var v any
		err := dec.Decode(&v)
		return v, err
	case codecIDStreamGob:
		return nil, errors.New("stream-codec payload outside a peer stream")
	default:
		c := loadCodecs().byID[id]
		if c == nil {
			return nil, fmt.Errorf("unknown codec id %d", id)
		}
		return c.Decode(b[1:])
	}
}
