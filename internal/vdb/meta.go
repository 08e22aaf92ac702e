package vdb

import "strings"

// Metadata is the relational half of one image row: the row type of every
// public call that carries rows in (LoadCorpus, LoadCorpusFromStore, Append,
// AppendRecords) and of the journal and checkpoint codecs. The DB holds the
// rows as columns (metaTable), converted at that boundary.
type Metadata struct {
	ID       int64
	Location string
	Camera   string
	TS       int64 // capture time, seconds since stream start
}

// strColumn is a dictionary-coded string column: each row holds the code of
// its value, the value's index in dict, and dict lists the distinct values in
// order of first appearance. Both are append-only, so a code names the same
// value for as long as the column lives. lookup inverts dict for the writer
// that appends; a view has none, so no reader ever reads a map a writer
// mutates.
type strColumn struct {
	codes  []uint32
	dict   []string
	lookup map[string]uint32
}

// add appends one row holding s, giving s the next code if it is new. A new
// value is copied into the dictionary, so the column never keeps alive a
// caller's buffer, and each row's own copy of a repeated value is garbage as
// soon as the caller drops it.
func (c *strColumn) add(s string) {
	code, ok := c.lookup[s]
	if !ok {
		if c.lookup == nil {
			c.lookup = make(map[string]uint32)
		}
		code = uint32(len(c.dict))
		s = strings.Clone(s)
		c.dict = append(c.dict, s)
		c.lookup[s] = code
	}
	c.codes = append(c.codes, code)
}

// view bounds the column at its current rows and values with full slice
// expressions, so a later append never writes into what the view can see.
func (c *strColumn) view() strColumn {
	return strColumn{codes: c.codes[:len(c.codes):len(c.codes)], dict: c.dict[:len(c.dict):len(c.dict)]}
}

// value is row i's string.
func (c *strColumn) value(i int) string { return c.dict[c.codes[i]] }

// metaTable is the images table's metadata as four append-only columns: id
// and ts as integers, location and camera as dictionary codes. A row costs
// 24 bytes and holds no pointer, so the GC scans none of it; the strings are
// the dictionaries', one per distinct value. The DB holds the master copy
// writers append to; each read state holds a view of it (see view).
type metaTable struct {
	id, ts           []int64
	location, camera strColumn
}

// newMetaTable holds rows as columns.
func newMetaTable(rows []Metadata) metaTable {
	t := metaTable{
		id:       make([]int64, 0, len(rows)),
		ts:       make([]int64, 0, len(rows)),
		location: strColumn{codes: make([]uint32, 0, len(rows))},
		camera:   strColumn{codes: make([]uint32, 0, len(rows))},
	}
	t.add(rows)
	return t
}

// len is the row count.
func (t *metaTable) len() int { return len(t.id) }

// add appends rows.
func (t *metaTable) add(rows []Metadata) {
	for i := range rows {
		m := &rows[i]
		t.id = append(t.id, m.ID)
		t.ts = append(t.ts, m.TS)
		t.location.add(m.Location)
		t.camera.add(m.Camera)
	}
}

// view is the table as it stands, bounded so that appends to t never write
// into it: what a read state pins.
func (t *metaTable) view() metaTable {
	n := t.len()
	return metaTable{id: t.id[:n:n], ts: t.ts[:n:n], location: t.location.view(), camera: t.camera.view()}
}

// row is row i as a Metadata; its strings are the dictionaries'.
func (t *metaTable) row(i int) Metadata {
	return Metadata{ID: t.id[i], Location: t.location.value(i), Camera: t.camera.value(i), TS: t.ts[i]}
}

// rows converts the table back to Metadata rows, for the checkpoint codec.
func (t *metaTable) rows() []Metadata {
	out := make([]Metadata, t.len())
	for i := range out {
		out[i] = t.row(i)
	}
	return out
}
