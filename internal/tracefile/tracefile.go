// Package tracefile implements a compact binary format for key streams,
// so workloads can be generated once, saved, inspected and replayed
// bit-identically — the moral equivalent of the paper distributing its
// Wikipedia/Twitter traces. The format is a streaming dictionary coder:
//
//	header:  magic "SLBT" | version u32 | message count i64
//	message: varint id            (id < len(dict): back-reference)
//	         varint len | bytes   (id == len(dict): new key, appended)
//	         zigzag-varint value  (version 2 only: the payload sample)
//
// Keys are dictionary-coded by first appearance, so typical skewed
// traces compress to ≈1–2 bytes per message. Version 2 additionally
// records an int64 payload value per message — the sample a windowed
// merger aggregates (see stream.Source for the engines' sampling
// contract). Write picks the version automatically: key-only
// generators keep producing byte-identical version-1 traces, while
// value-bearing generators (stream.WithValues, another replay) yield
// version 2. Readers accept both; a version-1 replay reports
// HasValues() == false and supplies the constant 1.
//
// Replay replays a trace from any io.ReadSeeker — bytes in memory or
// an open file — as a stream.Generator (and
// stream.ValueBatchGenerator), and can therefore drive every engine in
// this module.
package tracefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"slb/internal/stream"
)

// Magic identifies trace files.
const Magic = "SLBT"

// Version is the newest format version this package writes and reads.
// Version 1 encodes keys only; version 2 appends a payload value to
// every message.
const Version = 2

// maxKeyLen guards against corrupt length prefixes.
const maxKeyLen = 1 << 20

// Write encodes every message of gen (reset first) to w and returns the
// message count. When gen records payload values (stream.Values returns
// non-nil) the trace is written as version 2 with the values inline;
// otherwise the output is a byte-identical version-1 key trace. The
// generator is reset again afterwards.
func Write(w io.Writer, gen stream.Generator) (int64, error) {
	vg := stream.Values(gen)
	version := uint32(1)
	if vg != nil {
		version = 2
	}
	gen.Reset()
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return 0, err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], version)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(gen.Len()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}

	ids := make(map[string]uint64)
	var buf [binary.MaxVarintLen64]byte
	var count int64
	keys := make([]string, 512)
	vals := make([]int64, 512)
	for {
		var n int
		if vg != nil {
			n = vg.NextBatchValues(keys, vals)
		} else {
			n = gen.NextBatch(keys)
		}
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			key := keys[i]
			id, seen := ids[key]
			if !seen {
				id = uint64(len(ids))
				ids[key] = id
				m := binary.PutUvarint(buf[:], id)
				if _, err := bw.Write(buf[:m]); err != nil {
					return count, err
				}
				m = binary.PutUvarint(buf[:], uint64(len(key)))
				if _, err := bw.Write(buf[:m]); err != nil {
					return count, err
				}
				if _, err := bw.WriteString(key); err != nil {
					return count, err
				}
			} else {
				m := binary.PutUvarint(buf[:], id)
				if _, err := bw.Write(buf[:m]); err != nil {
					return count, err
				}
			}
			if version >= 2 {
				m := binary.PutVarint(buf[:], vals[i])
				if _, err := bw.Write(buf[:m]); err != nil {
					return count, err
				}
			}
			count++
		}
	}
	gen.Reset()
	if count != gen.Len() {
		return count, fmt.Errorf("tracefile: generator emitted %d messages, declared %d", count, gen.Len())
	}
	return count, bw.Flush()
}

// WriteFile encodes gen into a new file at path.
func WriteFile(path string, gen stream.Generator) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := Write(f, gen)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// Reader decodes one pass over a trace from an io.ByteReader; Replay
// wraps it into a resettable stream.Generator.
type Reader struct {
	br       io.ByteReader
	dict     []string
	version  uint32
	declared int64
	read     int64
}

// NewReader starts decoding from r, validating the header.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	magic := make([]byte, 4)
	if err := readFull(br, magic); err != nil {
		return nil, fmt.Errorf("tracefile: short header: %w", err)
	}
	if string(magic) != Magic {
		return nil, errors.New("tracefile: bad magic")
	}
	hdr := make([]byte, 12)
	if err := readFull(br, hdr); err != nil {
		return nil, fmt.Errorf("tracefile: short header: %w", err)
	}
	v := binary.LittleEndian.Uint32(hdr[0:4])
	if v < 1 || v > Version {
		return nil, fmt.Errorf("tracefile: unsupported version %d", v)
	}
	declared := int64(binary.LittleEndian.Uint64(hdr[4:12]))
	if declared < 0 {
		return nil, fmt.Errorf("tracefile: negative message count %d", declared)
	}
	return &Reader{br: br, version: v, declared: declared}, nil
}

func readFull(br io.ByteReader, p []byte) error {
	for i := range p {
		b, err := br.ReadByte()
		if err != nil {
			return err
		}
		p[i] = b
	}
	return nil
}

// HasValues reports whether the trace records payload values (format
// version ≥ 2); when false, NextValue supplies the constant 1.
func (r *Reader) HasValues() bool { return r.version >= 2 }

// NextValue decodes one message as its key and payload value (1 for
// version-1 traces); io.EOF after the last message.
func (r *Reader) NextValue() (string, int64, error) {
	if r.read >= r.declared {
		return "", 0, io.EOF
	}
	id, err := binary.ReadUvarint(r.br)
	if err != nil {
		return "", 0, fmt.Errorf("tracefile: message %d: %w", r.read, err)
	}
	var key string
	switch {
	case id < uint64(len(r.dict)):
		key = r.dict[id]
	case id == uint64(len(r.dict)):
		n, err := binary.ReadUvarint(r.br)
		if err != nil {
			return "", 0, fmt.Errorf("tracefile: key length: %w", err)
		}
		if n > maxKeyLen {
			return "", 0, fmt.Errorf("tracefile: key length %d exceeds limit", n)
		}
		buf := make([]byte, n)
		if err := readFull(r.br, buf); err != nil {
			return "", 0, fmt.Errorf("tracefile: key bytes: %w", err)
		}
		key = string(buf)
		r.dict = append(r.dict, key)
	default:
		return "", 0, fmt.Errorf("tracefile: id %d skips dictionary (size %d)", id, len(r.dict))
	}
	val := int64(1)
	if r.version >= 2 {
		v, err := binary.ReadVarint(r.br)
		if err != nil {
			return "", 0, fmt.Errorf("tracefile: message %d value: %w", r.read, err)
		}
		val = v
	}
	r.read++
	return key, val, nil
}

// Replay replays a trace held by an io.ReadSeeker; it implements
// stream.Generator and stream.ValueBatchGenerator. Len is the header's
// message count, fixed when the replay opens; Reset seeks back to the
// start of the same source. A decode error — a cut or corrupt trace —
// ends the stream early, as does a source that can no longer be
// re-read, and the engines report the shortfall against Len
// (stream.CheckDrawn).
type Replay struct {
	src    io.ReadSeeker
	r      *Reader
	n      int64
	closer io.Closer
}

// NewReplay validates the trace header at the start of src and returns
// a resettable replay over it.
func NewReplay(src io.ReadSeeker) (*Replay, error) {
	g := &Replay{src: src}
	if err := g.rewind(); err != nil {
		return nil, err
	}
	g.n = g.r.declared
	return g, nil
}

// OpenFile opens a trace file as a replay that owns the file; Close
// releases it.
func OpenFile(path string) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	g, err := NewReplay(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	g.closer = f
	return g, nil
}

// rewind seeks src to its start and decodes the header again.
func (g *Replay) rewind() error {
	if _, err := g.src.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var rd io.Reader = g.src
	if _, ok := rd.(io.ByteReader); !ok {
		rd = bufio.NewReaderSize(rd, 1<<16)
	}
	r, err := NewReader(rd)
	if err != nil {
		return err
	}
	g.r = r
	return nil
}

// fill decodes up to len(keys) messages, with their values when vals
// is non-nil; a decode error (io.EOF included) ends the stream.
func (g *Replay) fill(keys []string, vals []int64) int {
	for i := range keys {
		k, v, err := g.r.NextValue()
		if err != nil {
			return i
		}
		keys[i] = k
		if vals != nil {
			vals[i] = v
		}
	}
	return len(keys)
}

// NextBatch implements stream.Generator.
func (g *Replay) NextBatch(dst []string) int { return g.fill(dst, nil) }

// NextBatchValues implements stream.ValueBatchGenerator.
func (g *Replay) NextBatchValues(keys []string, vals []int64) int { return g.fill(keys, vals) }

// HasValues implements stream.ValueBatchGenerator: true for version-2
// traces, whose replay supplies the recorded payload values.
func (g *Replay) HasValues() bool { return g.r.HasValues() }

// Len implements stream.Generator.
func (g *Replay) Len() int64 { return g.n }

// Reset implements stream.Generator. When the source can no longer be
// re-read the replay presents as drained, and a run over it fails the
// short-stream check instead of shrinking.
func (g *Replay) Reset() {
	if err := g.rewind(); err != nil {
		g.r = &Reader{version: g.r.version}
	}
}

// Close releases the file a replay from OpenFile owns; it is a no-op
// for NewReplay.
func (g *Replay) Close() error {
	if g.closer == nil {
		return nil
	}
	err := g.closer.Close()
	g.closer = nil
	return err
}

var _ stream.ValueBatchGenerator = (*Replay)(nil)
