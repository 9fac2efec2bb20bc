package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSrc(t *testing.T, src string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "src.go")
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func msgs(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Msg)
	}
	return out
}

func TestHotPathFlagsHazards(t *testing.T) {
	p := writeSrc(t, `package x

import (
	"fmt"
	"time"
)

func step() {
	a := make([]int, 4)
	b := new(int)
	a = append(a, *b)
	c := &struct{ n int }{n: len(a)}
	f := func() int { return c.n }
	go f()
	_ = time.Now()
	_ = fmt.Sprintf("%d", f())
}
`)
	fs, err := HotPath(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allocating builtin make",
		"allocating builtin new",
		"allocating builtin append",
		"&composite literal",
		"creates a closure",
		"launches a goroutine",
		"calls time.Now",
		"calls fmt.Sprintf",
	}
	for _, w := range want {
		found := false
		for _, m := range msgs(fs) {
			if strings.Contains(m, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("no finding mentioning %q; got %q", w, msgs(fs))
		}
	}
	for _, f := range fs {
		if !strings.Contains(f.Msg, "hot-path function step") {
			t.Errorf("finding not attributed to enclosing function: %q", f.Msg)
		}
		if f.Pos.Line == 0 {
			t.Errorf("finding without a line: %+v", f)
		}
	}
}

func TestHotPathExemptions(t *testing.T) {
	p := writeSrc(t, `package x

import "fmt"

type T struct{ n int }

// NewT allocates; constructors are exempt.
func NewT() *T { return &T{n: len(make([]int, 8))} }

func (t *T) String() string { return fmt.Sprintf("T{%d}", t.n) }

// register is called once at startup.
//
//adore:coldpath
func register(t *T) []*T { return append([]*T(nil), t) }

func hot(t *T) int { return t.n }
`)
	fs, err := HotPath(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("exempt functions flagged: %q", msgs(fs))
	}
}

func TestHotPathDirectiveIsExact(t *testing.T) {
	// A prose mention of the directive is not the directive.
	p := writeSrc(t, `package x

// hot mentions adore:coldpath but is not marked with it.
func hot() []int { return make([]int, 1) }
`)
	fs, err := HotPath(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Errorf("want 1 finding, got %q", msgs(fs))
	}
}

// TestRepoIsClean runs the hot-path check over the real tree, pinning the
// calibration: the run-loop files allocate only in constructors and
// //adore:coldpath functions. This is the same sweep cmd/adore-vet
// performs.
func TestRepoIsClean(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, rel := range HotPathFiles {
		fs, err := HotPath(filepath.Join(root, rel))
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		for _, f := range fs {
			t.Errorf("%s", f)
		}
	}
}
