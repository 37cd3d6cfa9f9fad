package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"unsafe"
)

// Frame codec v2: slabs of Msg become length-prefixed COLUMNAR frames
// over a PERSISTENT per-link key dictionary.
//
// Two structural ideas separate v2 from the interleaved varint record
// per message it replaced:
//
//  1. Struct-of-arrays. A frame is a sequence of per-field columns —
//     all key references, then all windows, then all weights, … —
//     instead of interleaved per-message records. Encode and decode
//     become tight single-field loops, columns whose values are all
//     zero (Val0/Val1 on the tuple path) are elided entirely via a
//     flags byte, uniform columns collapse to a single value (a slab
//     from one spout carries its constant Src once, and Window/Weight
//     are usually uniform too — one epoch, count workloads),
//     non-uniform windows are delta+zigzag coded (runs of equal ids,
//     so deltas are almost all one zero byte), and the emit column is
//     sparse (the dataplane latency-samples 1-in-8).
//
//  2. A stateful dictionary with an epoch-reset protocol. The encoder
//     assigns each distinct key a dense id for the lifetime of the
//     link; key bytes and the 8-byte digest cross the wire once, in the
//     frame's new-keys column, and every later occurrence is one small
//     varint id. When the dictionary reaches frameDictMax the encoder
//     starts a new EPOCH: it clears the dictionary, bumps its epoch
//     counter, and raises fReset on the next frame; the decoder mirrors
//     the clear. Every frame carries the encoder's epoch and the
//     decoder verifies it against its own — a dropped, duplicated or
//     reordered frame desynchronizes the dictionaries, and the epoch
//     check turns that into a hard ErrCorrupt instead of silently
//     delivering wrong keys. Eviction is therefore trivially correct:
//     the only eviction is the wholesale reset both sides perform at
//     the same frame boundary.
//
// Wire layout (all integers varint unless noted; columns in order):
//
//	frame   := uvarint(len(payload)) payload
//	payload := uvarint(count) uvarint(epoch) flags:1 columns
//	columns := [newKeys] keyRefs windows weights [val0s] [val1s]
//	           [emits] srcs                        (columns only if count > 0)
//	newKeys := uvarint(numNew) (uvarint(keyLen) keyBytes dig:8LE)^numNew
//	keyRefs := uvarint(ref)^count                  ref < len(dict)+numNew
//	windows := zigzag(window)                      if fWinConst
//	         | zigzag(delta from previous, first from 0)^count
//	weights := zigzag(weight)                      if fWeightConst
//	         | zigzag^count
//	val0s   := uvarint^count                       only if fVal0
//	val1s   := uvarint^count                       only if fVal1
//	emits   := uvarint(k) (uvarint(idxDelta) zigzag(emit))^k  only if fEmit
//	srcs    := zigzag(src)                         if fSrcConst
//	         | zigzag^count                        otherwise
//
// New dictionary entries are appended in first-occurrence order, so the
// decoder extends its dictionary from the new-keys column and keyRefs
// decode as plain indices — including references to entries introduced
// by this same frame. The dictionary stores the digest WITH the key, so
// references elide both, and the ENCODER side is keyed by the digest
// alone: hashing.KeyDigest is the dataplane's canonical key identity
// (every aggregation table is keyed by it), so digest-equal messages
// are already the same key everywhere downstream. The sparse emit column records ascending message indices as
// gaps (first absolute, then strictly positive deltas).
//
// Decoding never panics: every malformed input — truncated varint or
// column, out-of-range reference, epoch mismatch, dictionary overflow
// without reset, oversized key or count, trailing garbage — returns an
// error wrapping ErrCorrupt.
//
// Decoded key strings are interned in a per-decoder byte arena
// (chunked, append-only): one chunk allocation amortizes over thousands
// of keys, and a steady-state frame — every key a dictionary hit —
// decodes with zero allocations (hard-asserted by
// TestColumnarDecodeSteadyStateZeroAllocs).

// Codec limits. A frame larger than frameMaxLen, a key longer than
// frameMaxKey, or a frame claiming more than frameMaxMsgs messages is
// rejected outright (no honest encoder produces one), which also
// bounds what a fuzzer can make the decoder allocate.
const (
	frameMaxLen  = 1 << 24
	frameMaxKey  = 1 << 16
	frameMaxMsgs = 1 << 20
	frameDictMax = 1 << 15
)

// Frame flag bits.
const (
	fReset       = 1 << 0 // dictionary epoch reset precedes this frame
	fNewKeys     = 1 << 1 // new-keys column present
	fVal0        = 1 << 2 // val0 column present (some value nonzero)
	fVal1        = 1 << 3 // val1 column present
	fEmit        = 1 << 4 // sparse emit column present
	fSrcConst    = 1 << 5 // single shared src instead of a column
	fWinConst    = 1 << 6 // single shared window instead of a column
	fWeightConst = 1 << 7 // single shared weight instead of a column
)

// ErrCorrupt is wrapped by every decode error.
var ErrCorrupt = errors.New("transport: corrupt frame")

func zig(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// EncoderStats is the encoder's cumulative dictionary ledger.
type EncoderStats struct {
	// Hits counts messages whose key was already in the dictionary
	// (only a varint id crossed the wire); News counts introductions
	// (key bytes + digest crossed once); Resets counts epoch resets.
	Hits, News, Resets uint64
}

// Encoder packs slabs into columnar frames, carrying the link's
// persistent key dictionary across its whole lifetime. Zero value is
// ready to use.
type Encoder struct {
	// dict is keyed by the message DIGEST, not the key string: the
	// dataplane's canonical key identity is hashing.KeyDigest (every
	// aggregation table is keyed by it), so the codec adopting the same
	// identity adds no new collision surface — and a uint64 probe
	// costs a fraction of hashing the key bytes per message.
	dict       encDict
	epoch      uint64
	forceReset bool
	stats      EncoderStats
	buf        []byte // payload assembly, reused across frames
	newbuf     []byte // new-keys column scratch
	refbuf     []byte // keyRefs column scratch
}

// Stats returns the cumulative dictionary ledger.
func (e *Encoder) Stats() EncoderStats { return e.stats }

// ResetEpoch forces the next AppendFrame to start a new dictionary
// epoch (clear + fReset), regardless of occupancy. The TCP sender calls
// it after a reconnect: the reset frame is the link's documented resync
// point — post-reconnect frames depend only on keys introduced since
// the reset, never on dictionary context from before the outage.
func (e *Encoder) ResetEpoch() { e.forceReset = true }

// AppendFrame appends one frame holding msgs to dst and returns the
// extended slice. The payload is staged in internal buffers (reused
// across calls) so the length prefix can be written first. If the
// dictionary is at capacity the frame starts a new epoch (fReset).
func (e *Encoder) AppendFrame(dst []byte, msgs []Msg) []byte {
	var flags byte
	if e.forceReset || e.dict.n >= frameDictMax {
		e.dict.clear()
		e.epoch++
		e.stats.Resets++
		e.forceReset = false
		flags |= fReset
	}

	// Pre-scan: which optional columns exist, which are constant. A
	// slab's windows and weights are usually uniform (one epoch, count
	// workloads), so like the per-spout Src they collapse to one value.
	emits := 0
	srcConst, winConst, weightConst := true, true, true
	for i := range msgs {
		m := &msgs[i]
		if m.Val0 != 0 {
			flags |= fVal0
		}
		if m.Val1 != 0 {
			flags |= fVal1
		}
		if m.Emit != 0 {
			emits++
		}
		if m.Src != msgs[0].Src {
			srcConst = false
		}
		if m.Window != msgs[0].Window {
			winConst = false
		}
		if m.Weight != msgs[0].Weight {
			weightConst = false
		}
	}
	if len(msgs) > 0 {
		if srcConst {
			flags |= fSrcConst
		}
		if winConst {
			flags |= fWinConst
		}
		if weightConst {
			flags |= fWeightConst
		}
	}
	if emits > 0 {
		flags |= fEmit
	}

	// Key columns: refs into refbuf, introductions into newbuf — one
	// pass growing the dictionary exactly as the decoder will.
	rb, nb := e.refbuf[:0], e.newbuf[:0]
	numNew := 0
	for i := range msgs {
		m := &msgs[i]
		id, ok := e.dict.lookupOrAdd(m.Dig)
		if !ok {
			numNew++
			e.stats.News++
			nb = binary.AppendUvarint(nb, uint64(len(m.Key)))
			nb = append(nb, m.Key...)
			nb = binary.LittleEndian.AppendUint64(nb, m.Dig)
		} else {
			e.stats.Hits++
		}
		rb = binary.AppendUvarint(rb, uint64(id))
	}
	e.refbuf, e.newbuf = rb, nb
	if numNew > 0 {
		flags |= fNewKeys
	}

	b := e.buf[:0]
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	b = binary.AppendUvarint(b, e.epoch)
	b = append(b, flags)
	if len(msgs) > 0 {
		if numNew > 0 {
			b = binary.AppendUvarint(b, uint64(numNew))
			b = append(b, nb...)
		}
		b = append(b, rb...)
		if flags&fWinConst != 0 {
			b = binary.AppendUvarint(b, zig(msgs[0].Window))
		} else {
			prev := int64(0)
			for i := range msgs {
				b = binary.AppendUvarint(b, zig(msgs[i].Window-prev))
				prev = msgs[i].Window
			}
		}
		if flags&fWeightConst != 0 {
			b = binary.AppendUvarint(b, zig(msgs[0].Weight))
		} else {
			for i := range msgs {
				b = binary.AppendUvarint(b, zig(msgs[i].Weight))
			}
		}
		if flags&fVal0 != 0 {
			for i := range msgs {
				b = binary.AppendUvarint(b, msgs[i].Val0)
			}
		}
		if flags&fVal1 != 0 {
			for i := range msgs {
				b = binary.AppendUvarint(b, msgs[i].Val1)
			}
		}
		if flags&fEmit != 0 {
			b = binary.AppendUvarint(b, uint64(emits))
			prevIdx := 0
			first := true
			for i := range msgs {
				if msgs[i].Emit == 0 {
					continue
				}
				if first {
					b = binary.AppendUvarint(b, uint64(i))
					first = false
				} else {
					b = binary.AppendUvarint(b, uint64(i-prevIdx))
				}
				b = binary.AppendUvarint(b, zig(msgs[i].Emit))
				prevIdx = i
			}
		}
		if flags&fSrcConst != 0 {
			b = binary.AppendUvarint(b, zig(int64(msgs[0].Src)))
		} else {
			for i := range msgs {
				b = binary.AppendUvarint(b, zig(int64(msgs[i].Src)))
			}
		}
	}
	e.buf = b
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// encDict is the encoder's digest → dense-id table: open addressing
// with linear probing over power-of-two slots, ids handed out in
// insertion order (0, 1, 2, … — the order the decoder appends them in).
// The digest is already a hash, so a multiply-shift spreads it; the
// multiply keeps structured digests (tests, adversarial peers) from
// piling onto one probe run. It grows by doubling at ¾ load, so a link
// that carries few distinct keys stays at the 16 KiB it starts with and
// a full epoch (frameDictMax ids plus one slab's overshoot) tops out at
// 64 Ki slots. clear keeps the slots for the next epoch, as the map it
// replaced kept its buckets.
type encDict struct {
	slots []encSlot // len is 0 or a power of two
	shift uint      // 64 - log2(len(slots))
	n     int       // ids handed out this epoch
}

// encSlot holds id+1 so the zero slot is empty and digest 0 is a key.
type encSlot struct {
	dig  uint64
	idp1 uint32
}

const encDictMinSlots = 1024

func (d *encDict) home(dig uint64) uint64 {
	return (dig * 0x9e3779b97f4a7c15) >> d.shift
}

// lookupOrAdd returns dig's id and whether it was already present; a
// new digest gets the next id.
func (d *encDict) lookupOrAdd(dig uint64) (id uint32, ok bool) {
	if 4*(d.n+1) > 3*len(d.slots) {
		d.grow()
	}
	mask := uint64(len(d.slots) - 1)
	for i := d.home(dig); ; i = (i + 1) & mask {
		s := &d.slots[i]
		if s.idp1 == 0 {
			s.dig, s.idp1 = dig, uint32(d.n)+1
			d.n++
			return s.idp1 - 1, false
		}
		if s.dig == dig {
			return s.idp1 - 1, true
		}
	}
}

func (d *encDict) grow() {
	old := d.slots
	size := max(encDictMinSlots, 2*len(old))
	d.slots = make([]encSlot, size)
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, s := range old {
		if s.idp1 == 0 {
			continue
		}
		i := d.home(s.dig)
		for d.slots[i].idp1 != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = s
	}
}

func (d *encDict) clear() {
	clear(d.slots)
	d.n = 0
}

type dictEntry struct {
	key string
	dig uint64
}

// keyArena interns decoded key bytes in append-only chunks so the
// decoder does not allocate one string per dictionary introduction.
// Chunks are never reused: delivered messages (and dictionary entries
// from earlier epochs) hold string headers into them, and the garbage
// collector frees a chunk when the last such string dies.
type keyArena struct {
	cur []byte
}

const arenaChunk = 64 << 10

func (a *keyArena) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(a.cur)+len(b) > cap(a.cur) {
		n := arenaChunk
		if len(b) > n {
			n = len(b)
		}
		a.cur = make([]byte, 0, n)
	}
	off := len(a.cur)
	a.cur = append(a.cur, b...)
	// The chunk region [off, off+len(b)) is never written again (the
	// arena only appends and abandons full chunks), so exposing it as
	// an immutable string is safe.
	return unsafe.String(&a.cur[off], len(b))
}

// Decoder unpacks frame payloads, mirroring the encoder's persistent
// dictionary and epoch. Zero value is ready to use.
type Decoder struct {
	dict  []dictEntry
	epoch uint64
	arena keyArena
}

// DecodeFrame decodes one frame payload (the bytes after the length
// prefix) and appends the messages to dst. On any malformed input it
// returns a non-nil error wrapping ErrCorrupt; callers must discard
// the returned slice (and the connection — the dictionary state is no
// longer trustworthy).
func (d *Decoder) DecodeFrame(payload []byte, dst []Msg) ([]Msg, error) {
	p := payload
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return dst, fmt.Errorf("%w: bad count", ErrCorrupt)
	}
	p = p[n:]
	// Every message costs at least its one-byte key ref, so a payload
	// shorter than count messages cannot be honest — rejecting it here
	// bounds how much a crafted count can make the decoder reserve.
	if count > frameMaxMsgs || count > uint64(len(p)) {
		return dst, fmt.Errorf("%w: count %d exceeds payload", ErrCorrupt, count)
	}
	epoch, n := binary.Uvarint(p)
	if n <= 0 {
		return dst, fmt.Errorf("%w: bad epoch", ErrCorrupt)
	}
	p = p[n:]
	if len(p) < 1 {
		return dst, fmt.Errorf("%w: missing flags", ErrCorrupt)
	}
	flags := p[0]
	p = p[1:]
	want := d.epoch
	if flags&fReset != 0 {
		want++
	}
	if epoch != want {
		return dst, fmt.Errorf("%w: epoch %d, want %d (link desynchronized)", ErrCorrupt, epoch, want)
	}
	if flags&fReset != 0 {
		d.dict = d.dict[:0]
		d.epoch = want
	}
	if count == 0 {
		if flags&^fReset != 0 {
			return dst, fmt.Errorf("%w: empty frame with columns", ErrCorrupt)
		}
		if len(p) != 0 {
			return dst, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(p))
		}
		return dst, nil
	}

	// New-keys column: extend the dictionary first, then keyRefs decode
	// as plain indices.
	if flags&fNewKeys != 0 {
		numNew, n := binary.Uvarint(p)
		if n <= 0 || numNew == 0 || numNew > count {
			return dst, fmt.Errorf("%w: bad new-key count", ErrCorrupt)
		}
		p = p[n:]
		if len(d.dict) >= frameDictMax {
			return dst, fmt.Errorf("%w: dictionary overflow without reset", ErrCorrupt)
		}
		for j := uint64(0); j < numNew; j++ {
			klen, n := binary.Uvarint(p)
			if n <= 0 || klen > frameMaxKey || klen > uint64(len(p)-n) {
				return dst, fmt.Errorf("%w: bad key length", ErrCorrupt)
			}
			p = p[n:]
			key := d.arena.intern(p[:klen])
			p = p[klen:]
			if len(p) < 8 {
				return dst, fmt.Errorf("%w: truncated digest", ErrCorrupt)
			}
			d.dict = append(d.dict, dictEntry{key, binary.LittleEndian.Uint64(p)})
			p = p[8:]
		}
	}

	// Reserve the output region, then fill it column by column.
	base := len(dst)
	need := base + int(count)
	if cap(dst) < need {
		grown := make([]Msg, need, max(need, 2*cap(dst)))
		copy(grown, dst)
		dst = grown[:base]
	}
	dst = dst[:need]
	out := dst[base:]

	dict := d.dict
	for i := range out {
		ref, n := binary.Uvarint(p)
		if n <= 0 {
			return dst, fmt.Errorf("%w: truncated key refs", ErrCorrupt)
		}
		p = p[n:]
		if ref >= uint64(len(dict)) {
			return dst, fmt.Errorf("%w: key ref %d out of range", ErrCorrupt, ref)
		}
		out[i].Key, out[i].Dig = dict[ref].key, dict[ref].dig
	}
	if flags&fWinConst != 0 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return dst, fmt.Errorf("%w: truncated windows", ErrCorrupt)
		}
		p = p[n:]
		w := unzig(v)
		for i := range out {
			out[i].Window = w
		}
	} else {
		prev := int64(0)
		for i := range out {
			v, n := binary.Uvarint(p)
			if n <= 0 {
				return dst, fmt.Errorf("%w: truncated windows", ErrCorrupt)
			}
			p = p[n:]
			prev += unzig(v)
			out[i].Window = prev
		}
	}
	if flags&fWeightConst != 0 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return dst, fmt.Errorf("%w: truncated weights", ErrCorrupt)
		}
		p = p[n:]
		w := unzig(v)
		for i := range out {
			out[i].Weight = w
		}
	} else {
		for i := range out {
			v, n := binary.Uvarint(p)
			if n <= 0 {
				return dst, fmt.Errorf("%w: truncated weights", ErrCorrupt)
			}
			p = p[n:]
			out[i].Weight = unzig(v)
		}
	}
	if flags&fVal0 != 0 {
		for i := range out {
			v, n := binary.Uvarint(p)
			if n <= 0 {
				return dst, fmt.Errorf("%w: truncated val0", ErrCorrupt)
			}
			p = p[n:]
			out[i].Val0 = v
		}
	} else {
		for i := range out {
			out[i].Val0 = 0
		}
	}
	if flags&fVal1 != 0 {
		for i := range out {
			v, n := binary.Uvarint(p)
			if n <= 0 {
				return dst, fmt.Errorf("%w: truncated val1", ErrCorrupt)
			}
			p = p[n:]
			out[i].Val1 = v
		}
	} else {
		for i := range out {
			out[i].Val1 = 0
		}
	}
	for i := range out {
		out[i].Emit = 0
	}
	if flags&fEmit != 0 {
		k, n := binary.Uvarint(p)
		if n <= 0 || k == 0 || k > count {
			return dst, fmt.Errorf("%w: bad emit count", ErrCorrupt)
		}
		p = p[n:]
		idx := uint64(0)
		for j := uint64(0); j < k; j++ {
			gap, n := binary.Uvarint(p)
			if n <= 0 {
				return dst, fmt.Errorf("%w: truncated emits", ErrCorrupt)
			}
			p = p[n:]
			if j == 0 {
				idx = gap
			} else {
				if gap == 0 {
					return dst, fmt.Errorf("%w: non-ascending emit index", ErrCorrupt)
				}
				idx += gap
			}
			if idx >= count {
				return dst, fmt.Errorf("%w: emit index %d out of range", ErrCorrupt, idx)
			}
			v, n := binary.Uvarint(p)
			if n <= 0 {
				return dst, fmt.Errorf("%w: truncated emits", ErrCorrupt)
			}
			p = p[n:]
			if v == 0 {
				return dst, fmt.Errorf("%w: zero emit in sparse column", ErrCorrupt)
			}
			out[idx].Emit = unzig(v)
		}
	}
	if flags&fSrcConst != 0 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return dst, fmt.Errorf("%w: truncated src", ErrCorrupt)
		}
		p = p[n:]
		s := unzig(v)
		if s < -(1<<31) || s >= 1<<31 {
			return dst, fmt.Errorf("%w: src out of range", ErrCorrupt)
		}
		for i := range out {
			out[i].Src = int32(s)
		}
	} else {
		for i := range out {
			v, n := binary.Uvarint(p)
			if n <= 0 {
				return dst, fmt.Errorf("%w: truncated srcs", ErrCorrupt)
			}
			p = p[n:]
			s := unzig(v)
			if s < -(1<<31) || s >= 1<<31 {
				return dst, fmt.Errorf("%w: src out of range", ErrCorrupt)
			}
			out[i].Src = int32(s)
		}
	}
	if len(p) != 0 {
		return dst, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(p))
	}
	return dst, nil
}
