package datagen

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"autostats/internal/catalog"
	"autostats/internal/storage"
)

// WriteTbl writes every table of the database as a pipe-delimited
// <table>.tbl file under dir, the flat-file format of the original dbgen
// tool (one row per line, columns separated by '|'). A failed or
// interrupted run leaves no partial dataset behind: every .tbl file created
// so far is removed, and the directory too if this call created it and it is
// otherwise empty. ctx is checked before each table and every 4096 rows while
// streaming.
func WriteTbl(ctx context.Context, db *storage.Database, dir string) (err error) {
	madeDir := false
	if _, serr := os.Stat(dir); os.IsNotExist(serr) {
		madeDir = true
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var created []string
	defer func() {
		if err == nil {
			return
		}
		for _, p := range created {
			os.Remove(p)
		}
		if madeDir {
			os.Remove(dir) // only succeeds if empty, which is the point
		}
	}()
	for _, name := range db.Schema.TableNames() {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		td, terr := db.Table(name)
		if terr != nil {
			return terr
		}
		path := filepath.Join(dir, name+".tbl")
		f, ferr := os.Create(path)
		if ferr != nil {
			return ferr
		}
		created = append(created, path)
		w := bufio.NewWriter(f)
		var werr error
		td.Scan(func(i int, r storage.Row) bool {
			if i&4095 == 4095 {
				if werr = ctx.Err(); werr != nil {
					return false
				}
			}
			for j, d := range r {
				if j > 0 {
					if _, werr = w.WriteString("|"); werr != nil {
						return false
					}
				}
				if _, werr = w.WriteString(tblField(d)); werr != nil {
					return false
				}
			}
			if _, werr = w.WriteString("\n"); werr != nil {
				return false
			}
			return true
		})
		if werr == nil {
			werr = w.Flush()
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			if werr == ctx.Err() && werr != nil {
				return werr
			}
			return fmt.Errorf("datagen: writing %s.tbl: %w", name, werr)
		}
	}
	return nil
}

func tblField(d catalog.Datum) string {
	if d.Null {
		return ""
	}
	switch d.T {
	case catalog.Int, catalog.Date:
		return strconv.FormatInt(d.I, 10)
	case catalog.Float:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	default:
		return d.S
	}
}

// LoadTbl reads <table>.tbl files from dir into a fresh database over the
// TPC-D schema, inverting WriteTbl.
func LoadTbl(dir string) (*storage.Database, error) {
	schema := Schema()
	db, err := storage.NewDatabase("tpcd_tbl", schema)
	if err != nil {
		return nil, err
	}
	for _, name := range schema.TableNames() {
		path := filepath.Join(dir, name+".tbl")
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		tbl, _ := schema.Table(name)
		rows, err := readTblRows(f, tbl)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("datagen: reading %s: %w", path, err)
		}
		td, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		if err := td.BulkLoad(rows); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func readTblRows(r io.Reader, tbl *catalog.Table) ([]storage.Row, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var rows []storage.Row
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		fields := strings.Split(line, "|")
		if len(fields) != len(tbl.Columns) {
			return nil, fmt.Errorf("line %d: %d fields, want %d", lineNo, len(fields), len(tbl.Columns))
		}
		row := make(storage.Row, len(fields))
		for i, field := range fields {
			d, err := parseTblField(field, tbl.Columns[i].Type)
			if err != nil {
				return nil, fmt.Errorf("line %d column %s: %w", lineNo, tbl.Columns[i].Name, err)
			}
			row[i] = d
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

func parseTblField(s string, t catalog.Type) (catalog.Datum, error) {
	if s == "" && t != catalog.String {
		return catalog.NewNull(t), nil
	}
	switch t {
	case catalog.Int:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return catalog.Datum{}, err
		}
		return catalog.NewInt(v), nil
	case catalog.Date:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return catalog.Datum{}, err
		}
		return catalog.NewDate(v), nil
	case catalog.Float:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return catalog.Datum{}, err
		}
		return catalog.NewFloat(v), nil
	default:
		return catalog.NewString(s), nil
	}
}
