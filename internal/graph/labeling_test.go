package graph

import (
	"slices"
	"strconv"
	"testing"
)

// labelPool is the name alphabet FuzzLabeling draws from: canonical
// decimals that can sit at their own slot, non-canonical decimal spellings
// that Atoi still reads ("007" is 7, "+3" is 3, "-0" is 0), spellings Atoi
// rejects (" 1"), and free strings.
var labelPool = []string{
	"0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11",
	"007", "+3", "-0", " 1", "01", "-1", "1 ", "99999999999999999999",
	"a", "bob", "x7", "new-1",
}

// labelModel is the reference: names in slot order with a full inverse map.
type labelModel struct {
	toID   map[string]NodeID
	toName []string
}

// isIdentity reports whether name, sitting at slot id, is one the sparse
// map must leave out.
func isIdentity(name string, id NodeID) bool {
	i, err := strconv.Atoi(name)
	return err == nil && i == int(id)
}

// checkLabeling asserts the table equals the model: the same slots, ID
// agreeing with the full map on every pool name (present or not), and the
// sparse map holding exactly the non-identity names at their slots.
func checkLabeling(t *testing.T, l *Labeling, m *labelModel, step int) {
	t.Helper()
	if !slices.Equal(l.ToName, m.toName) {
		t.Fatalf("step %d: ToName = %q, model has %q", step, l.ToName, m.toName)
	}
	for _, name := range labelPool {
		id, ok := l.ID(name)
		want, wantOK := m.toID[name]
		if ok != wantOK || (ok && id != want) {
			t.Fatalf("step %d: ID(%q) = %d, %v; model has %d, %v", step, name, id, ok, want, wantOK)
		}
	}
	nonIdentity := 0
	for name, id := range m.toID {
		if !isIdentity(name, id) {
			nonIdentity++
			if got, ok := l.toID[name]; !ok || got != id {
				t.Fatalf("step %d: non-identity %q at %d missing from the map (got %d, %v)", step, name, id, got, ok)
			}
		}
	}
	if len(l.toID) != nonIdentity || l.Aliases() != nonIdentity {
		t.Fatalf("step %d: map holds %d names (%v), want the %d non-identity ones", step, len(l.toID), l.toID, nonIdentity)
	}
}

// FuzzLabeling drives the sparse label table through the edits its callers
// make — append a fresh name, rename a slot, drop the last slot, and
// swap-with-last removal — against a full-map model, checking after every
// step that ID agrees with the model and that the map holds exactly the
// non-identity names.
func FuzzLabeling(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x0c, 0x03, 0x00})
	f.Add([]byte{0x00, 0x0e, 0x00, 0x0d, 0x00, 0x0c, 0x00, 0x03, 0x01, 0x02, 0x03, 0x01})
	f.Add([]byte{0x00, 0x14, 0x00, 0x15, 0x00, 0x02, 0x00, 0x0f, 0x07, 0x00, 0x02, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := &Labeling{}
		m := &labelModel{toID: make(map[string]NodeID)}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			n := len(m.toName)
			name := labelPool[int(arg)%len(labelPool)]
			_, taken := m.toID[name]
			switch op % 4 {
			case 0: // append a fresh name
				if taken {
					continue
				}
				l.Bind(NodeID(n), name)
				m.toID[name] = NodeID(n)
				m.toName = append(m.toName, name)
			case 1: // rename slot op/4 to a fresh name
				if taken || n == 0 {
					continue
				}
				x := NodeID(int(op/4) % n)
				l.Unbind(l.ToName[x])
				l.Bind(x, name)
				delete(m.toID, m.toName[x])
				m.toID[name] = x
				m.toName[x] = name
			case 2: // drop the last slot
				if n == 0 {
					continue
				}
				l.Unbind(l.ToName[n-1])
				l.ToName = l.ToName[:n-1]
				delete(m.toID, m.toName[n-1])
				m.toName = m.toName[:n-1]
			case 3: // remove slot arg, moving the last name into it
				if n == 0 {
					continue
				}
				x, last := NodeID(int(arg)%n), NodeID(n-1)
				l.Unbind(l.ToName[x])
				delete(m.toID, m.toName[x])
				if x != last {
					l.Bind(x, l.ToName[last])
					m.toName[x] = m.toName[last]
					m.toID[m.toName[x]] = x
				}
				l.ToName = l.ToName[:last]
				m.toName = m.toName[:last]
			}
			checkLabeling(t, l, m, i/2)
		}
	})
}

// TestLabelingIdentityNeedsNoMap pins the case the sparse map exists for:
// a table of "0", "1", … holds no map entry, and ID still resolves every
// name — and none of its non-canonical spellings.
func TestLabelingIdentityNeedsNoMap(t *testing.T) {
	l := &Labeling{}
	for i := range 100 {
		if id := l.Intern(strconv.Itoa(i)); int(id) != i {
			t.Fatalf("Intern(%d) = %d", i, id)
		}
	}
	if l.Aliases() != 0 || l.toID != nil {
		t.Fatalf("identity table allocated a map of %d names", l.Aliases())
	}
	for _, s := range []string{"42", "99", "0"} {
		if id, ok := l.ID(s); !ok || strconv.Itoa(int(id)) != s {
			t.Fatalf("ID(%q) = %d, %v", s, id, ok)
		}
	}
	for _, s := range []string{"042", "+42", "-0", "100", "-1", " 4"} {
		if id, ok := l.ID(s); ok {
			t.Fatalf("ID(%q) = %d, want not found", s, id)
		}
	}
}
