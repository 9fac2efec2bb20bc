// adore-vet runs the repository's custom vet checks (internal/lint):
// zero-allocation discipline in the simulator's run-loop files. It is
// built on the standard library's go/ast only — the module has no
// external dependencies, so the usual `go vet -vettool` route is
// unavailable — and CI runs it as a direct step.
//
// Usage:
//
//	adore-vet [-root dir]
//
// Exit status is non-zero when any finding is reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/cmd/internal/cli"
	"repro/internal/lint"
)

func main() {
	root := flag.String("root", "", "module root (default: nearest parent with go.mod)")
	flag.Parse()

	dir := *root
	if dir == "" {
		var err error
		dir, err = findRoot()
		cli.Fatal(err)
	}

	findings := 0
	emit := func(fs []lint.Finding, err error) {
		cli.Fatal(err)
		for _, f := range fs {
			fmt.Println(f)
			findings++
		}
	}
	for _, rel := range lint.HotPathFiles {
		emit(lint.HotPath(filepath.Join(dir, rel)))
	}

	if findings > 0 {
		fmt.Printf("\n%d vet finding(s)\n", findings)
		os.Exit(1)
	}
	fmt.Printf("adore-vet: %d hot-path file(s) are clean\n", len(lint.HotPathFiles))
}

// findRoot walks up from the working directory to the nearest go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s; pass -root", dir)
		}
		dir = parent
	}
}
