// Package unused exercises the unused analyzer. Its roots are init,
// the package-level var initializers and one pragma'd function; every
// other declaration is reached from them or reported.
package unused

// rdata is unexported, and no code calls pack on a concrete type: the
// interface alone keeps the pack methods of reached types.
type rdata interface {
	pack() []byte
}

// name is embedded in ns, so the records that hold an ns reach it.
type name struct{ target string }

func (n name) pack() []byte { return []byte(n.target) }

func (name) canonicalTarget() {} // want `name.canonicalTarget is not reachable`

type ns struct{ name }

var records = []rdata{ns{name{"ns1.example."}}}

func init() {
	for _, r := range records {
		_ = r.pack()
	}
	_ = Map([]int{1, 2}, double)
}

// Map is generic: the call in init instantiates it.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// double is never called directly, only passed as a value.
func double(x int) int { return 2 * x }

// Orphan has no caller at all.
func Orphan() {} // want `Orphan is not reachable`

// TestOnly is called only from unused_test.go, which the loader skips.
func TestOnly() int { return 1 } // want `TestOnly is not reachable`

// Policy and Always form an island: Always reaches only itself, and
// Policy exempts Accept only on a reached type.
type Policy interface { // want `Policy is not reachable`
	Accept() bool
}

type Always struct{} // want `Always is not reachable`

func (Always) Accept() bool { return true } // want `Always.Accept is not reachable`

func (a Always) Twin() Always { return a } // want `Always.Twin is not reachable`

// Oracle is kept for tests by its pragma, and so is what it calls.
//
//lint:allow unused the fixture's oracle for its own tests
func Oracle() bool { return helper() }

func helper() bool { return true }

const Unread = 1 // want `Unread is not reachable`

// build runs at init, for a var that nothing reads.
var table = build() // want `table is not reachable`

func build() int { return 1 }
