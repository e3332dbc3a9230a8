// Disk tier: content-hash keyed entry files under a cache directory,
// so summaries stay warm across process restarts and are shared by
// parallel compile servers on the same machine. The in-memory map
// remains the first tier; a memory miss probes the disk, and every
// fresh store is written through. Because the key already covers the
// procedure's source, positions, options and consumed interprocedural
// inputs, a disk file is immutable once written — concurrent writers
// of the same key produce identical bytes, and the write is an atomic
// rename, so readers never observe a torn entry.
//
// The on-disk format is JSON. Every summary structure (delayed
// partition constraints, delayed communication, decomposition
// summaries, distributions, remarks) is plain
// exported data and round-trips directly; the generated unit — an AST
// — is stored as printed SPMD source and reparsed on load. Entries are
// stored only when that print→parse round trip reproduces the printed
// bytes exactly (verified at store time), so a disk hit's listing is
// byte-identical to the cold compile's.
package summarycache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"fortd/internal/ast"
	"fortd/internal/parser"
)

// diskFormat versions the entry files, schema and generated units (3:
// shifts split around pipelined loops; 4: entries stopped carrying the
// interface and inputs renderings; 5: nor overlap actuals; 6: a delayed
// message records the decomposition it is read under, not its key); any
// other version is a miss.
const diskFormat = 6

// diskEntry is Entry with the AST unit flattened to printed source.
type diskEntry struct {
	Format  int
	UnitSrc string
	Entry
}

// disk is one cache directory.
type disk struct {
	dir string
}

func (d *disk) path(key string) string {
	return filepath.Join(d.dir, key+".json")
}

// printUnit renders a procedure the way disk entries store it.
func printUnit(u *ast.Procedure) string {
	return string(ast.AppendProcedure(nil, u))
}

// store writes e's entry file via an atomic rename. Entries whose unit
// does not round-trip byte-identically through the printer and parser
// are skipped: a later process would regenerate a different listing,
// which the cache's determinism contract forbids.
func (d *disk) store(e *Entry) error {
	src := printUnit(e.Unit)
	reparsed, err := parser.ParseProcedure(src)
	if err != nil || printUnit(reparsed) != src {
		return fmt.Errorf("summarycache: %s does not round-trip through the printer; not persisted", e.Proc)
	}
	buf, err := json.Marshal(&diskEntry{Format: diskFormat, UnitSrc: src, Entry: *e})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, "."+e.Key+".tmp*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, d.path(e.Key)); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// load reads the entry stored under key, or nil when there is none (or
// the file is unreadable, version-mismatched, or corrupt — all of
// which are treated as plain misses).
func (d *disk) load(key string) *Entry {
	buf, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil
	}
	var de diskEntry
	if json.Unmarshal(buf, &de) != nil || de.Format != diskFormat || de.Key != key {
		return nil
	}
	if de.Unit, err = parser.ParseProcedure(de.UnitSrc); err != nil {
		return nil
	}
	return &de.Entry
}

// entries counts the entry files currently in the directory.
func (d *disk) entries() int {
	names, err := filepath.Glob(filepath.Join(d.dir, "*.json"))
	if err != nil {
		return 0
	}
	return len(names)
}
