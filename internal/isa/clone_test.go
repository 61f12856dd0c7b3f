package isa_test

import (
	"reflect"
	"testing"

	"polyprof/internal/isa"
	"polyprof/internal/workloads"
)

// jsonCopy is the copy a round trip through the wire encoding makes.
func jsonCopy(t *testing.T, p *isa.Program) *isa.Program {
	t.Helper()
	data, err := isa.EncodeJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := isa.DecodeJSON(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return q
}

// scribble overwrites every mutable part of p: program fields, globals,
// function block lists, blocks, instructions and call arguments.
func scribble(p *isa.Program) {
	p.Name += ".x"
	p.MemWords++
	for name, g := range p.Globals {
		g.Size++
		p.Globals[name] = g
	}
	if p.Globals == nil {
		p.Globals = map[string]isa.Global{}
	}
	p.Globals["scribbled"] = isa.Global{Base: 1, Size: 1}
	for _, f := range p.Funcs {
		f.Name += ".x"
		f.NumRegs++
		for i := range f.Blocks {
			f.Blocks[i]++
		}
	}
	for _, b := range p.Blocks {
		b.Name += ".x"
		b.Index++
		for k := range b.Code {
			in := &b.Code[k]
			in.Op, in.Dst, in.Imm, in.Then = isa.Nop, in.Dst+1, in.Imm+1, in.Then+1
			in.Loc.Line++
			for a := range in.Args {
				in.Args[a]++
			}
		}
		b.Code = append(b.Code, isa.Instr{Op: isa.Halt})
	}
	p.Funcs = append(p.Funcs, &isa.Func{Name: "extra"})
}

// checkClone requires p.Clone() to equal the JSON round trip of p and
// to share nothing mutable with p.
func checkClone(t *testing.T, p *isa.Program) {
	t.Helper()
	want := jsonCopy(t, p)
	c := p.Clone()
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("Clone differs from the JSON round trip:\n--- clone ---\n%.2000s\n--- round trip ---\n%.2000s",
			c.Disasm(), want.Disasm())
	}
	scribble(c)
	if got := jsonCopy(t, p); !reflect.DeepEqual(got, want) {
		t.Fatal("writing to the clone changed the original")
	}
}

// TestProgramCloneMatchesJSON: on every bundled workload, Clone is the
// deep copy the JSON round trip made, and the copy is independent of
// the original.
func TestProgramCloneMatchesJSON(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			checkClone(t, workloads.ByName(name).Build())
		})
	}
}

// FuzzCloneProgram checks Clone against the JSON round trip on every
// program the decoder accepts.  The corpus in testdata holds the
// encodings of FuzzVM's seed images.
func FuzzCloneProgram(f *testing.F) {
	for _, name := range []string{"example1", "example2"} {
		data, err := isa.EncodeJSON(workloads.ByName(name).Build())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := isa.DecodeJSON(data)
		if err != nil {
			return
		}
		if _, err := isa.EncodeJSON(p); err != nil {
			t.Fatalf("a decoded program does not encode: %v", err)
		}
		checkClone(t, p)
	})
}
