package serve

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"time"
	"unsafe"

	"autonosql/internal/obs"
)

// spanLog keeps a job's finished op traces as binary records back to back in
// buf; ends[i] is record i's end offset. A record is the trace id (uvarint),
// the variant's index in strs, a flags byte, key, tenant and err (uvarint
// length, then bytes), start and end − start (varints), then the event count
// and per event its phase's index in strs, its time as a signed delta from
// the previous event's (start for the first: events are not time-ordered),
// its node and its note.
//
// Written bytes never change: appends land past every earlier view, and
// dropping records copies the survivors into fresh arrays. A view taken under
// the job's lock therefore decodes without it, into strings that alias its
// bytes. Offsets are uint32, so one log holds at most 4 GiB.
type spanLog struct {
	buf   []byte
	ends  []uint32
	head  int // index in ends of the oldest retained record
	first int // sequence number of the oldest retained record
	strs  []string
	index map[string]uint64 // strs inverted
}

// Record flags.
const (
	spanWrite byte = 1 << iota
	spanDone
	spanNilEvents
)

// next is the sequence number the next record gets.
func (l *spanLog) next() int { return l.first + len(l.ends) - l.head }

// add appends tr, then drops the oldest records beyond retain (0 keeps all).
func (l *spanLog) add(variant string, tr *obs.OpTrace, retain int) {
	var flags byte
	if tr.Write {
		flags |= spanWrite
	}
	if tr.Done {
		flags |= spanDone
	}
	if tr.Events == nil {
		flags |= spanNilEvents
	}
	b := binary.AppendUvarint(l.buf, tr.ID)
	b = append(binary.AppendUvarint(b, l.intern(variant)), flags)
	b = appendString(appendString(appendString(b, tr.Key), tr.Tenant), tr.Err)
	b = binary.AppendVarint(b, int64(tr.Start))
	b = binary.AppendVarint(b, int64(tr.End-tr.Start))
	b = binary.AppendUvarint(b, uint64(len(tr.Events)))
	prev := tr.Start
	for _, e := range tr.Events {
		b = binary.AppendUvarint(b, l.intern(e.Phase))
		b = binary.AppendVarint(b, int64(e.At-prev))
		b = appendString(binary.AppendVarint(b, int64(e.Node)), e.Note)
		prev = e.At
	}
	l.buf, l.ends = b, append(l.ends, uint32(len(b)))
	if drop := len(l.ends) - l.head - retain; retain > 0 && drop > 0 {
		l.head += drop
		l.first += drop
		// Compacting once the dropped bytes outweigh the kept ones bounds
		// the arrays by a small multiple of the retained records, at an
		// amortised copy of one record per add.
		if 2*int(l.ends[l.head-1]) >= len(l.buf) {
			l.rebase()
		}
	}
}

// rebase moves the retained records into fresh exact-size arrays, which
// also releases spare capacity once the job is over.
func (l *spanLog) rebase() {
	var lo uint32
	if l.head > 0 {
		lo = l.ends[l.head-1]
	}
	ends := make([]uint32, len(l.ends)-l.head)
	for i, e := range l.ends[l.head:] {
		ends[i] = e - lo
	}
	l.buf, l.ends, l.head = append([]byte(nil), l.buf[lo:]...), ends, 0
}

func (l *spanLog) intern(s string) uint64 {
	i, ok := l.index[s]
	if !ok {
		if l.index == nil {
			l.index = make(map[string]uint64)
		}
		i = uint64(len(l.strs))
		l.strs = append(l.strs, s)
		l.index[s] = i
	}
	return i
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// spanView is an immutable run of consecutive records.
type spanView struct {
	seq  int // the first record's sequence number
	buf  []byte
	ends []uint32
	lo   uint32 // the first record's start offset in buf
	strs []string
}

// view returns the retained records from sequence from on, and the sequence
// after them; a from past the newest record yields no records and from.
func (l *spanLog) view(from int) (v spanView, next int) {
	v.seq = max(from, l.first)
	if k := v.seq - l.first; k < len(l.ends)-l.head {
		i := l.head + k
		if i > 0 {
			v.lo = l.ends[i-1]
		}
		v.buf, v.ends, v.strs = l.buf, l.ends[i:], l.strs
	}
	return v, v.seq + len(v.ends)
}

// spanLine is SpanRecord with the decoded trace in place of its JSON bytes:
// the same fields and tags, so encoding/json writes the record's exact line.
type spanLine struct {
	Job     string       `json:"job"`
	Variant string       `json:"variant,omitempty"`
	Seq     int          `json:"seq"`
	Span    *obs.OpTrace `json:"span"`
}

// spanWriter renders views as the SpanRecord lines /spans serves, decoding
// every record into one reused trace.
type spanWriter struct {
	enc    *json.Encoder
	line   spanLine
	tr     obs.OpTrace
	events []obs.SpanEvent
}

func newSpanWriter(w io.Writer, job string) *spanWriter {
	sw := &spanWriter{enc: json.NewEncoder(w), events: []obs.SpanEvent{}}
	sw.line = spanLine{Job: job, Span: &sw.tr}
	return sw
}

// write encodes every record of v, one line each.
func (sw *spanWriter) write(v *spanView) error {
	lo := v.lo
	for k, end := range v.ends {
		sw.decode(v.strs, v.buf[lo:end])
		sw.line.Seq = v.seq + k
		if err := sw.enc.Encode(&sw.line); err != nil {
			return err
		}
		lo = end
	}
	return nil
}

func (sw *spanWriter) decode(strs []string, rec []byte) {
	r, tr := spanReader{rec}, &sw.tr
	tr.ID = r.uvarint()
	sw.line.Variant = strs[r.uvarint()]
	flags := r.next(1)[0]
	tr.Write, tr.Done = flags&spanWrite != 0, flags&spanDone != 0
	tr.Key, tr.Tenant, tr.Err = r.string(), r.string(), r.string()
	tr.Start = time.Duration(r.varint())
	tr.End = tr.Start + time.Duration(r.varint())
	sw.events = sw.events[:0]
	at := tr.Start
	for n := r.uvarint(); n > 0; n-- {
		phase := strs[r.uvarint()]
		at += time.Duration(r.varint())
		sw.events = append(sw.events, obs.SpanEvent{At: at, Phase: phase, Node: int(r.varint()), Note: r.string()})
	}
	tr.Events = sw.events
	if flags&spanNilEvents != 0 {
		tr.Events = nil
	}
}

// spanReader walks one record the log wrote; it trusts the encoding.
type spanReader struct{ b []byte }

func (r *spanReader) next(n int) []byte {
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

func (r *spanReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	r.next(n)
	return x
}

func (r *spanReader) varint() int64 {
	x, n := binary.Varint(r.b)
	r.next(n)
	return x
}

// string aliases the record's bytes instead of copying them, which is safe
// because the log never rewrites a byte.
func (r *spanReader) string() string {
	b := r.next(int(r.uvarint()))
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
