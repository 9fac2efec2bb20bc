// Package lint implements the repository's custom vet checks, built on
// the standard library's go/ast only (the module has no external
// dependencies, so the go/analysis framework and `go vet -vettool` are
// unavailable). cmd/adore-vet runs every check over the tree and CI runs
// it as a direct step.
//
// Checks:
//
//   - hotpath: the simulator run loop ([HotPathFiles]) must not allocate
//     or call time.Now / fmt.* per step. Constructors (New*), String
//     methods, and functions marked with an //adore:coldpath directive
//     are exempt.
package lint

import (
	"fmt"
	"go/token"
)

// Finding is one vet diagnostic at a source position.
type Finding struct {
	Pos   token.Position
	Check string // "hotpath"
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
}
