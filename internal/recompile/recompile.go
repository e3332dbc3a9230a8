// Package recompile implements the recompilation analysis of §8 (and
// §4): in an interprocedural compilation system, an edited module can
// invalidate the code generated for modules that were not edited. To
// preserve the benefits of separate compilation, ParaScope records the
// interprocedural information each procedure's compilation consumed and,
// after an edit, recompiles only the procedures whose own source or
// whose consumed information actually changed.
package recompile

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"

	"fortd/internal/ast"
	"fortd/internal/core"
)

// Database is the persistent record of one compilation: per-procedure
// fingerprints of the local source and of the interprocedural inputs
// used to compile it.
type Database struct {
	// Local maps procedure → fingerprint of its own source text.
	Local map[string]string
	// Inputs maps procedure → fingerprint of the interprocedural
	// information consumed when it was compiled (reaching
	// decompositions and callee interface summaries).
	Inputs map[string]string
	// Interface maps procedure → fingerprint of the summary it exposes
	// to callers.
	Interface map[string]string
}

// Snapshot fingerprints a completed compilation.
func Snapshot(c *core.Compilation) *Database {
	db := &Database{
		Local:     map[string]string{},
		Inputs:    map[string]string{},
		Interface: map[string]string{},
	}
	for _, u := range c.Source.Units {
		db.Local[u.Name] = hashProc(u)
	}
	// compiled units may include clones; record them under their
	// compiled names
	for name, s := range c.InputsUsed {
		db.Inputs[name] = hash(s)
	}
	for name, s := range c.Interfaces {
		db.Interface[name] = hash(s)
	}
	return db
}

// Plan compares the database of the previous compilation with a fresh
// snapshot of the new one and lists the procedures that must be
// recompiled: those whose source changed, those that are new, and
// those whose interprocedural inputs changed (edited or not). The
// result is sorted.
func Plan(old, cur *Database) []string {
	need := map[string]bool{}
	for name, h := range cur.Local {
		if old.Local[name] != h {
			need[name] = true
		}
	}
	for name, h := range cur.Inputs {
		if old.Inputs[name] != h {
			need[name] = true
		}
	}
	out := make([]string, 0, len(need))
	for name := range need {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Unchanged lists compiled procedures whose generated code is provably
// identical (source and inputs both unchanged) — the separate
// compilation the analysis preserves.
func Unchanged(old, cur *Database) []string {
	var out []string
	for name, h := range cur.Inputs {
		if old.Inputs[name] == h && old.Local[baseName(name)] == cur.Local[baseName(name)] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// baseName strips a clone suffix (F1$row → F1).
func baseName(name string) string {
	if i := strings.IndexByte(name, '$'); i > 0 {
		return name[:i]
	}
	return name
}

func hashProc(u *ast.Procedure) string {
	return hash(string(ast.AppendProcedure(nil, u)))
}

func hash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}
