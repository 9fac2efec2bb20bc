// Package compiler is the static compiler substrate: an ORC-like code
// generator that lowers a small loop-oriented kernel IR to simulated IA-64
// bundles. It provides the experiment knobs the paper's evaluation turns:
//
//   - O2: no static data prefetching (the ORC baseline for Fig. 7a)
//   - O3: Mowry-style static prefetching of analyzable affine array
//     references (Fig. 7b, Table 1)
//   - profile-guided prefetching: restrict O3 prefetches to loops that a
//     sampling profile shows to miss (Table 1)
//   - software pipelining on/off and the 4-register reservation used by
//     ADORE (Fig. 10)
//
// Like ORC, the compiler refuses to prefetch references it cannot analyze:
// indirect and pointer-chasing references, and loops whose arrays are
// ambiguous (aliased parameters, the paper's §1.1 matrix-multiply story).
package compiler

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// InitKind selects how an array's memory is initialized before a run.
type InitKind uint8

const (
	// InitZero leaves the array zeroed.
	InitZero InitKind = iota
	// InitLinear sets element i to (i*Mult + Add) mod Mod (Mod 0 means no
	// modulus). Used for value arrays and for index arrays feeding
	// indirect references.
	InitLinear
	// InitChain builds a linked structure: nodes of NodeSize bytes, the
	// pointer at NextOff in each node pointing to the next node in visit
	// order. ShufflePct percent of the links are redirected
	// pseudo-randomly; 0 gives a fully regular traversal (the "partially
	// regular strides" for which induction-pointer prefetching works),
	// 100 a graph-like walk it cannot help.
	InitChain
	// InitRandom sets element i to a pseudo-random value mod Mod
	// (deterministic in Seed) — a genuinely irregular index stream.
	InitRandom
)

// InitSpec configures array initialization.
type InitSpec struct {
	Kind       InitKind
	Mult, Add  int64
	Mod        int64
	NodeSize   int64
	NextOff    int64
	ShufflePct int
	Seed       uint64
}

// Array declares one data region of the kernel.
type Array struct {
	Name  string
	Elem  int   // element size in bytes (4 or 8)
	N     int64 // element count (for InitChain: node count, Elem ignored)
	Float bool
	Init  InitSpec
}

// Bytes returns the array footprint.
func (a *Array) Bytes() int64 {
	if a.Init.Kind == InitChain {
		return a.N * a.Init.NodeSize
	}
	return a.N * int64(a.Elem)
}

// RefKind classifies a memory reference, mirroring the paper's three
// runtime data reference patterns (Fig. 5).
type RefKind uint8

const (
	// RefAffine is a direct array reference: base + i*stride.
	RefAffine RefKind = iota
	// RefIndirect addresses Array[IndexTemp*Scale] where IndexTemp was
	// loaded earlier in the body.
	RefIndirect
	// RefPointer addresses *(PtrTemp + Offset); PtrTemp is loop-carried.
	RefPointer
)

// Ref is one memory reference in a loop body.
type Ref struct {
	Kind RefKind

	// RefAffine / RefIndirect: the named array.
	Array string

	// RefAffine: bytes advanced per inner and per outer iteration.
	InnerStride int64
	OuterStride int64
	Offset      int64

	// RefIndirect: temp holding the element index, and its scale in
	// bytes (usually the target array's element size).
	IndexTemp string
	Scale     int64

	// RefPointer: temp holding the node address.
	PtrTemp string
}

// StmtKind enumerates loop-body statements.
type StmtKind uint8

const (
	SLoadInt StmtKind = iota
	SLoadFloat
	SStoreInt
	SStoreFloat
	SAddImm // Dst = A + Imm (int)
	SAdd    // Dst = A + B (int)
	SAnd    // Dst = A & B
	SXor    // Dst = A ^ B
	SShl    // Dst = A << Imm
	SFAdd
	SFMul
	SFSub
	SFMA    // Dst = A*B + C
	SCvtFI  // Dst(int) = int64(A(float)); the slice-analysis poison
	SCvtIF  // Dst(float) = float64(A(int))
	SGetSig // Dst(int) = bits(A(float)); also poisons slices
)

// Stmt is one loop-body statement. Int and float temps live in separate
// namespaces selected by the statement kind.
type Stmt struct {
	Kind StmtKind
	Dst  string
	A    string
	B    string
	C    string
	Imm  int64
	Size int  // load/store bytes (int refs; float refs are always 8)
	Ref  *Ref // for load/store kinds
}

// Init sets a loop-carried temp before the inner loop starts (re-executed
// at every outer iteration).
type Init struct {
	Temp   string
	IsImm  bool
	Imm    int64
	Array  string // when not IsImm: temp = &Array + Offset
	Offset int64
}

// Loop is a (possibly two-deep) loop nest: OuterTrip iterations of
// InnerTrip body executions. Affine references advance by InnerStride per
// inner iteration and restart at base + outer*OuterStride each outer
// iteration.
type Loop struct {
	Name      string
	OuterTrip int64 // 1 for a single loop
	InnerTrip int64
	Body      []Stmt
	Inits     []Init

	// Ambiguous marks loops whose arrays the static compiler cannot
	// analyze (aliased parameters): ORC will not prefetch them
	// regardless of level, but the runtime prefetcher — which sees
	// actual miss addresses — can.
	Ambiguous bool

	// NoSWP marks loops the modulo scheduler gives up on (complex
	// control, calls, recurrences in the real benchmarks); they are
	// emitted with the plain schedule under every option set.
	NoSWP bool

	// FloatTemps lists float temps that must be zero-initialized at the
	// outer head (accumulators).
	FloatTemps []string
}

// Phase is a sequence of loops repeated Repeat times; phases execute in
// order. A program with two phases of distinct working sets exercises
// ADORE's phase detector exactly like 179.art (Fig. 8).
type Phase struct {
	Name   string
	Repeat int64
	Loops  []*Loop
}

// Kernel is one synthetic program.
type Kernel struct {
	Name   string
	Arrays []Array
	Phases []Phase
}

// DataKey returns a content key for the kernel's initial data: a hash of
// its array declarations, the only input layoutArrays and initData read.
// Builds of one kernel at any optimization level — or of two kernels
// declaring the same arrays — have equal keys and identical initial data
// memory, which is what lets the harness build cache seal one data heap
// per key instead of one per build.
func (k *Kernel) DataKey() string {
	b, err := json.Marshal(k.Arrays)
	if err != nil {
		// Array is plain data; a marshal failure is a programming error.
		panic(fmt.Sprintf("compiler: kernel arrays not hashable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Validate performs structural checks before code generation.
func (k *Kernel) Validate() error {
	arr := map[string]bool{}
	for _, a := range k.Arrays {
		if arr[a.Name] {
			return fmt.Errorf("compiler: duplicate array %q", a.Name)
		}
		if a.Init.Kind != InitChain && a.Elem != 4 && a.Elem != 8 {
			return fmt.Errorf("compiler: array %q has element size %d", a.Name, a.Elem)
		}
		if a.N <= 0 {
			return fmt.Errorf("compiler: array %q has size %d", a.Name, a.N)
		}
		arr[a.Name] = true
	}
	for _, p := range k.Phases {
		if p.Repeat <= 0 {
			return fmt.Errorf("compiler: phase %q repeat %d", p.Name, p.Repeat)
		}
		for _, l := range p.Loops {
			if l.InnerTrip <= 0 || l.OuterTrip <= 0 {
				return fmt.Errorf("compiler: loop %q trips %d/%d", l.Name, l.OuterTrip, l.InnerTrip)
			}
			for i := range l.Body {
				s := &l.Body[i]
				if s.Ref != nil && s.Ref.Kind != RefPointer && !arr[s.Ref.Array] {
					return fmt.Errorf("compiler: loop %q stmt %d references unknown array %q", l.Name, i, s.Ref.Array)
				}
			}
		}
	}
	return nil
}
