package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// ignorePrefix introduces a suppression comment:
//
//	//sddsvet:ignore detflow -- flush order fixed by sorted keys
//	//sddsvet:ignore hotalloc,detflow -- startup only, once per run
//
// The comma-separated analyzer list may also be "all". The "-- reason" tail
// is the convention (reviewers should see why the pattern is safe); the
// suppression works without it so a missing reason never masks a finding
// the author meant to silence.
//
// ignoreFilePrefix is the file-scoped variant: it suppresses the named
// analyzers everywhere in the file it appears in. Reserve it for files
// whose whole purpose violates a contract (wall-clock capture bundles,
// generated code); prefer line directives everywhere else.
const (
	ignorePrefix     = "//sddsvet:ignore"
	ignoreFilePrefix = "//sddsvet:ignore-file"
)

// Directive is one parsed (analyzer, site) pair from a //sddsvet:ignore or
// //sddsvet:ignore-file comment. A comment naming several analyzers
// produces one Directive per name, so staleness is reported per analyzer:
// in "hotalloc,detflow" the hotalloc half can be stale while the detflow
// half still works.
type Directive struct {
	// Name is one analyzer name from the directive, or "all".
	Name string
	// File and Line locate the directive comment itself.
	File string
	Line int
	Pos  token.Pos
	// FileLevel marks //sddsvet:ignore-file directives.
	FileLevel bool

	used bool
}

// Used reports whether the directive suppressed at least one diagnostic or
// summary-level effect during this run.
func (d *Directive) Used() bool { return d.used }

// IgnoreIndex records, per file and line, which analyzers are suppressed,
// and tracks which directives actually did any suppressing so the audit
// can report the stale ones.
type IgnoreIndex struct {
	fset *token.FileSet
	// byLine maps filename → line → directives covering that line.
	byLine map[string]map[int][]*Directive
	// byFile maps filename → file-level directives.
	byFile map[string][]*Directive
	// all is every directive in the package, in source order.
	all []*Directive
}

// NewIgnoreIndex scans every comment in the package for ignore directives.
// A line directive suppresses matching diagnostics on its own line (as a
// trailing comment) and on the following line (a comment above the flagged
// statement); a file directive suppresses in its whole file.
func NewIgnoreIndex(pkg *Package) *IgnoreIndex {
	idx := &IgnoreIndex{
		fset:   pkg.Fset,
		byLine: make(map[string]map[int][]*Directive),
		byFile: make(map[string][]*Directive),
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fileLevel := false
				rest, ok := strings.CutPrefix(c.Text, ignoreFilePrefix)
				if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
					fileLevel = true
				} else {
					rest, ok = strings.CutPrefix(c.Text, ignorePrefix)
					if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
						continue
					}
				}
				names := strings.TrimSpace(rest)
				if i := strings.Index(names, "--"); i >= 0 {
					names = strings.TrimSpace(names[:i])
				}
				if names == "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, n := range strings.Split(names, ",") {
					n = strings.TrimSpace(n)
					if n == "" {
						continue
					}
					d := &Directive{
						Name: n, File: pos.Filename, Line: pos.Line,
						Pos: c.Pos(), FileLevel: fileLevel,
					}
					idx.all = append(idx.all, d)
					if fileLevel {
						idx.byFile[pos.Filename] = append(idx.byFile[pos.Filename], d)
						continue
					}
					lines := idx.byLine[pos.Filename]
					if lines == nil {
						lines = make(map[int][]*Directive)
						idx.byLine[pos.Filename] = lines
					}
					lines[pos.Line] = append(lines[pos.Line], d)
					lines[pos.Line+1] = append(lines[pos.Line+1], d)
				}
			}
		}
	}
	return idx
}

// Suppressed reports whether a diagnostic from the named analyzer at pos
// is covered by an ignore directive, marking every covering directive as
// used. Every match is marked (not just the first): two stacked
// directives for one diagnostic are both doing their job.
func (idx *IgnoreIndex) Suppressed(analyzer string, pos token.Pos) bool {
	p := idx.fset.Position(pos)
	hit := false
	for _, d := range idx.byLine[p.Filename][p.Line] {
		if d.Name == analyzer || d.Name == "all" {
			d.used = true
			hit = true
		}
	}
	for _, d := range idx.byFile[p.Filename] {
		if d.Name == analyzer || d.Name == "all" {
			d.used = true
			hit = true
		}
	}
	return hit
}

// Stale returns the directives that suppressed nothing this run, in
// source order. Only meaningful after the full analyzer suite has run
// over the package (and after any summary-driven analyzer has had the
// chance to consult the package's effects).
func (idx *IgnoreIndex) Stale() []*Directive {
	var out []*Directive
	for _, d := range idx.all {
		if !d.used {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Directives returns every directive in the package in source order
// (tests and tooling).
func (idx *IgnoreIndex) Directives() []*Directive { return idx.all }
