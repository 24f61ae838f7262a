package graph

// Edge-list I/O. The reader accepts the common formats used by KONECT and
// SNAP dumps (the sources of the paper's Arenas-email and DBLP datasets):
// whitespace-separated node pairs, '#' or '%' comment lines, arbitrary
// (possibly sparse or string) node labels. Labels are relabelled to dense
// IDs in first-seen order; the mapping is returned so results can be
// reported in the original namespace.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Labeling maps between external string node labels and dense NodeIDs.
//
// ToName is the full table in node-ID order. The inverse is sparse: the
// map holds only the names that are not the decimal spelling of their own
// slot (strconv.Atoi(name) != id), so a graph labelled "0", "1", … — every
// server-side dataset — carries no map at all. ID answers the inverse for
// every name. Code that changes the table goes through Bind and Unbind,
// which keep the map holding exactly the non-identity names; ToName may be
// read freely, and truncated once its tail's names are unbound.
type Labeling struct {
	ToName []string
	toID   map[string]NodeID // non-identity names only
}

// Name returns the external label of n, or its decimal form when the
// labeling is nil/unknown (useful for synthetic graphs).
func (l *Labeling) Name(n NodeID) string {
	if l != nil && int(n) < len(l.ToName) {
		return l.ToName[n]
	}
	return fmt.Sprintf("%d", n)
}

// ID returns the node named s: the map answers the non-identity names, and
// any other name can only sit at the slot its decimal value names.
func (l *Labeling) ID(s string) (NodeID, bool) {
	if id, ok := l.toID[s]; ok {
		return id, true
	}
	i, ok := atoi(s)
	if !ok || i < 0 || i >= len(l.ToName) || l.ToName[i] != s {
		return 0, false
	}
	return NodeID(i), true
}

// atoi is strconv.Atoi without its error value: a name that is not a signed
// run of digits is turned away before Atoi would allocate a *NumError, which
// matters because most non-identity names are not numbers at all.
func atoi(s string) (int, bool) {
	digits := s
	if s != "" && (s[0] == '+' || s[0] == '-') {
		digits = s[1:]
	}
	if digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	i, err := strconv.Atoi(s)
	return i, err == nil
}

// Bind names node id: ToName[id] = name, appending when id == len(ToName).
// name must not name another node; a name moving between slots is simply
// bound at its new one. The slot's previous name, if any, must already be
// unbound.
func (l *Labeling) Bind(id NodeID, name string) {
	if int(id) == len(l.ToName) {
		l.ToName = append(l.ToName, name)
	} else {
		l.ToName[id] = name
	}
	if i, ok := atoi(name); ok && i == int(id) {
		delete(l.toID, name)
		return
	}
	if l.toID == nil {
		l.toID = make(map[string]NodeID)
	}
	l.toID[name] = id
}

// Unbind drops name's inverse entry before the caller overwrites its slot
// or truncates it away.
func (l *Labeling) Unbind(name string) { delete(l.toID, name) }

// Intern returns s's node, binding s to the next fresh ID when it is new.
func (l *Labeling) Intern(s string) NodeID {
	if id, ok := l.ID(s); ok {
		return id
	}
	id := NodeID(len(l.ToName))
	l.Bind(id, s)
	return id
}

// Aliases returns how many names the sparse inverse map holds.
func (l *Labeling) Aliases() int { return len(l.toID) }

// ReadEdgeList parses an edge list from r. Empty lines and lines starting
// with '#' or '%' are skipped. Each remaining line must contain at least
// two whitespace-separated fields (extra fields, e.g. weights or
// timestamps, are ignored). Self loops and duplicate edges are dropped
// silently — both appear in raw KONECT dumps.
func ReadEdgeList(r io.Reader) (*Graph, *Labeling, error) {
	lab := &Labeling{}
	var edges []Edge

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: expected at least two fields, got %q", lineNo, line)
		}
		u, v := lab.Intern(fields[0]), lab.Intern(fields[1])
		if u == v {
			continue // drop self loops
		}
		edges = append(edges, NewEdge(u, v))
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}

	g := New(len(lab.ToName))
	for _, e := range edges {
		g.AddEdgeE(e) // duplicates return false and are ignored
	}
	return g, lab, nil
}

// WriteEdgeList writes g as a plain edge list, one "u v" pair per line in
// canonical order. When lab is non-nil the external labels are used.
func WriteEdgeList(w io.Writer, g *Graph, lab *Labeling) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%s %s\n", lab.Name(e.U), lab.Name(e.V)); err != nil {
			return fmt.Errorf("graph: writing edge list: %w", err)
		}
	}
	return bw.Flush()
}
