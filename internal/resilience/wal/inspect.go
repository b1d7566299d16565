package wal

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/backhaul"
	"repro/internal/faults"
)

// RecordInfo is one parsed WAL record, as Inspect reports it.
type RecordInfo struct {
	// Kind is "data" or "ack".
	Kind string `json:"kind"`
	// ID is the data record's log id, or the id an ack record retires.
	ID uint64 `json:"id"`
	// SegStart and SegSamples describe a data record's segment.
	SegStart   int64 `json:"seg_start,omitempty"`
	SegSamples int   `json:"seg_samples,omitempty"`
	// TraceID is the trace context journaled with the segment (0 when the
	// segment was journaled without one).
	TraceID uint64 `json:"trace_id,omitempty"`
}

// FileReport is one WAL file's inspection result.
type FileReport struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
	// Data and Acks count the checksum-clean records by kind.
	Data int `json:"data_records"`
	Acks int `json:"ack_records"`
	// TornBytes is the unparseable tail: bytes after the first bad frame.
	// Recovery would truncate exactly these.
	TornBytes int64 `json:"torn_bytes,omitempty"`
	// Records lists every clean record in file order.
	Records []RecordInfo `json:"records,omitempty"`
}

// Report is a whole-directory WAL inspection.
type Report struct {
	Dir   string       `json:"dir"`
	Files []FileReport `json:"files"`
	// DataRecords and AckRecords total the clean records across files.
	DataRecords int `json:"data_records"`
	AckRecords  int `json:"ack_records"`
	// Live is what a restart would replay: data records never acked.
	Live []RecordInfo `json:"live,omitempty"`
	// Traced counts live records whose segment carries a trace ID — after
	// recovery each replays on its original trace with a wal_replay stage.
	Traced int `json:"traced"`
	// TornBytes totals the unparseable tails across files.
	TornBytes int64 `json:"torn_bytes,omitempty"`
}

// Inspect reads a WAL directory without opening it for writing: it parses
// every record the same way recovery does (same framing, same checksums,
// same first-bad-frame cut) but mutates nothing — no truncation, no
// compaction, no append target. fs nil means the real filesystem. The
// error covers only directory-level failures; corrupt contents are
// reported, not failed on.
func Inspect(dir string, fs faults.Filesystem) (*Report, error) {
	if dir == "" {
		return nil, fmt.Errorf("wal: inspect: empty dir")
	}
	if fs == nil {
		fs = faults.OS()
	}
	names, err := fs.List(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: inspect %s: %w", dir, err)
	}
	seqs := make([]uint64, 0, len(names))
	for _, name := range names {
		if seq, ok := parseFileName(name); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	rep := &Report{Dir: dir}
	acked := make(map[uint64]struct{})
	var live []RecordInfo
	for _, seq := range seqs {
		name := fileName(seq)
		raw, err := fs.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("wal: inspect %s: %w", name, err)
		}
		fr := FileReport{Name: name, Bytes: int64(len(raw))}
		off := 0
		for off < len(raw) {
			kind, payload, next, ok := parseRecord(raw, off)
			if ok && kind == recData {
				id, seg, err := backhaul.DecodeSegmentSeq(payload)
				if err != nil {
					ok = false
				} else {
					info := RecordInfo{
						Kind:       "data",
						ID:         id,
						SegStart:   seg.Start,
						SegSamples: len(seg.Samples),
						TraceID:    seg.Trace,
					}
					fr.Records = append(fr.Records, info)
					fr.Data++
					live = append(live, info)
				}
			}
			if ok && kind == recAck {
				if len(payload) != 8 {
					ok = false
				} else {
					id := binary.BigEndian.Uint64(payload)
					fr.Records = append(fr.Records, RecordInfo{Kind: "ack", ID: id})
					fr.Acks++
					acked[id] = struct{}{}
				}
			}
			if !ok {
				fr.TornBytes = int64(len(raw) - off)
				break
			}
			off = next
		}
		rep.DataRecords += fr.Data
		rep.AckRecords += fr.Acks
		rep.TornBytes += fr.TornBytes
		rep.Files = append(rep.Files, fr)
	}
	for _, info := range live {
		if _, ok := acked[info.ID]; ok {
			continue
		}
		rep.Live = append(rep.Live, info)
		if info.TraceID != 0 {
			rep.Traced++
		}
	}
	sort.Slice(rep.Live, func(i, j int) bool { return rep.Live[i].ID < rep.Live[j].ID })
	return rep, nil
}
