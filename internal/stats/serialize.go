package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"autostats/internal/catalog"
	"autostats/internal/histogram"
)

// Snapshot (de)serialization: a statistics set can be exported to JSON and
// re-imported into a manager over the same schema, so a tuning run's output
// can be shipped, inspected, or restored without rebuilding from data.

type datumJSON struct {
	T    int     `json:"t"`
	I    int64   `json:"i,omitempty"`
	F    float64 `json:"f,omitempty"`
	S    string  `json:"s,omitempty"`
	Null bool    `json:"null,omitempty"`
}

func toDatumJSON(d catalog.Datum) datumJSON {
	return datumJSON{T: int(d.T), I: d.I, F: d.F, S: d.S, Null: d.Null}
}

func (d datumJSON) datum() catalog.Datum {
	return catalog.Datum{T: catalog.Type(d.T), I: d.I, F: d.F, S: d.S, Null: d.Null}
}

type bucketJSON struct {
	Lo       datumJSON `json:"lo"`
	Hi       datumJSON `json:"hi"`
	Rows     int64     `json:"rows"`
	Distinct int64     `json:"distinct"`
}

type histogramJSON struct {
	Kind     int          `json:"kind"`
	Buckets  []bucketJSON `json:"buckets"`
	Rows     int64        `json:"rows"`
	NullRows int64        `json:"nullRows"`
	Distinct int64        `json:"distinct"`
}

type statisticJSON struct {
	Table          string        `json:"table"`
	Columns        []string      `json:"columns"`
	Leading        histogramJSON `json:"leading"`
	Densities      []float64     `json:"densities"`
	PrefixDistinct []int64       `json:"prefixDistinct"`
	Rows           int64         `json:"rows"`
	BuildCost      float64       `json:"buildCost"`
	UpdateCount    int           `json:"updateCount"`
	InDropList     bool          `json:"inDropList,omitempty"`
}

type snapshotJSON struct {
	Version    int             `json:"version"`
	Database   string          `json:"database"`
	Statistics []statisticJSON `json:"statistics"`
}

// Save writes all statistics (including drop-listed ones) as JSON.
func (m *Manager) Save(w io.Writer) error {
	snap := snapshotJSON{Version: 1, Database: m.db.Name}
	for _, s := range m.All() {
		h := s.Data.Leading
		hj := histogramJSON{
			Kind: int(h.Kind), Rows: h.Rows, NullRows: h.NullRows, Distinct: h.Distinct,
		}
		for _, b := range h.Buckets {
			hj.Buckets = append(hj.Buckets, bucketJSON{
				Lo: toDatumJSON(b.Lo), Hi: toDatumJSON(b.Hi), Rows: b.Rows, Distinct: b.Distinct,
			})
		}
		snap.Statistics = append(snap.Statistics, statisticJSON{
			Table:          s.Table,
			Columns:        s.Columns,
			Leading:        hj,
			Densities:      s.Data.Densities,
			PrefixDistinct: s.Data.PrefixDistinct,
			Rows:           s.Data.Rows,
			BuildCost:      s.BuildCost,
			UpdateCount:    s.UpdateCount,
			InDropList:     s.InDropList,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// Load replaces the manager's statistics with a previously saved snapshot.
// No data is scanned and no build cost is charged: the histograms come from
// the snapshot verbatim. Each table and column must exist in the manager's
// database; they are stored under the catalog's canonical names.
func (m *Manager) Load(r io.Reader) error {
	var snap snapshotJSON
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("stats: decoding snapshot: %w", err)
	}
	if snap.Version != 1 {
		return fmt.Errorf("stats: unsupported snapshot version %d", snap.Version)
	}
	// Validate and construct before taking the writer mutex; nothing is
	// published when the snapshot is malformed.
	next := &version{byTable: make(map[string][]*Statistic)}
	for _, sj := range snap.Statistics {
		if len(sj.Columns) == 0 {
			return fmt.Errorf("stats: snapshot statistic on %s has no columns", sj.Table)
		}
		table, cols, err := m.canonicalNames(sj.Table, sj.Columns)
		if err != nil {
			return fmt.Errorf("stats: snapshot statistic on %s: %w", sj.Table, err)
		}
		id := MakeID(table, cols)
		h := &histogram.Histogram{
			Kind:     histogram.Kind(sj.Leading.Kind),
			Rows:     sj.Leading.Rows,
			NullRows: sj.Leading.NullRows,
			Distinct: sj.Leading.Distinct,
		}
		for _, bj := range sj.Leading.Buckets {
			h.Buckets = append(h.Buckets, histogram.Bucket{
				Lo: bj.Lo.datum(), Hi: bj.Hi.datum(), Rows: bj.Rows, Distinct: bj.Distinct,
			})
		}
		s := &Statistic{
			ID:      id,
			Table:   table,
			Columns: cols,
			Data: &histogram.MultiColumn{
				Columns:        cols,
				Leading:        h,
				Densities:      sj.Densities,
				PrefixDistinct: sj.PrefixDistinct,
				Rows:           sj.Rows,
			},
			BuildCost:   sj.BuildCost,
			UpdateCount: sj.UpdateCount,
			InDropList:  sj.InDropList,
		}
		// Groups stay in ID order; a repeated ID keeps its last entry.
		if group, i, ok := next.locate(id); ok {
			group[i] = s
		} else {
			next.byTable[id.Table()] = slices.Insert(group, i, s)
			next.count++
		}
	}
	met := m.metrics()
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock.Add(1)
	for _, group := range next.byTable {
		for _, s := range group {
			s.CreatedAt, s.UpdatedAt = now, now
		}
	}
	next.epoch = m.cur.Load().epoch + 1
	m.publish(next, met)
	return nil
}
