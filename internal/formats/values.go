package formats

import "sync"

// Values builds the strings of one decoded document as windows of a single
// string that holds only their bytes. A decoder hands each string field's
// bytes to Set as it meets them and calls Resolve once the document is
// complete: one allocation then backs every string of the document.
//
// The point is what a decoded document keeps alive. A string field that is
// a window of the whole input (as string(data) sliced up) pins the entire
// wire document, markup and all, for as long as any one field is held: a
// back end that keeps only an order's ID would keep the order's flat file.
// A values-only string pins just the values.
//
// The destinations passed to Set must stay where they are until Resolve:
// a decoder that appends to a slice of structs sizes the slice up front.
type Values struct {
	buf  []byte
	refs []valueRef
}

// valueRef is one pending assignment: *dst becomes buf[start:end].
type valueRef struct {
	dst        *string
	start, end int
}

// maxPooledValues caps the values buffer a pooled Values keeps.
const maxPooledValues = 64 << 10

var valuesPool = sync.Pool{New: func() any { return new(Values) }}

// GetValues returns an empty Values from the pool.
func GetValues() *Values { return valuesPool.Get().(*Values) }

// Release drops every pending assignment and returns v to the pool. It is
// safe to defer it before Resolve runs.
func (v *Values) Release() {
	v.reset()
	if cap(v.buf) > maxPooledValues {
		v.buf = nil
	}
	valuesPool.Put(v)
}

func (v *Values) reset() {
	clear(v.refs) // the pool must not keep decoded documents alive
	v.refs = v.refs[:0]
	v.buf = v.buf[:0]
}

// Set records that *dst receives value. A later Set of the same dst
// overrides an earlier one.
func (v *Values) Set(dst *string, value []byte) {
	start := len(v.buf)
	v.buf = append(v.buf, value...)
	v.refs = append(v.refs, valueRef{dst, start, len(v.buf)})
}

// setFrom records that *dst receives the bytes appended since mark.
func (v *Values) setFrom(dst *string, mark int) {
	v.refs = append(v.refs, valueRef{dst, mark, len(v.buf)})
}

// Resolve makes the values string and assigns every recorded destination
// in the order Set was called. An empty value is the empty string, not a
// window, so it keeps nothing alive.
func (v *Values) Resolve() {
	s := string(v.buf)
	for _, r := range v.refs {
		if r.start == r.end {
			*r.dst = ""
		} else {
			*r.dst = s[r.start:r.end]
		}
	}
	v.reset()
}
