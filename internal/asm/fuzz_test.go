package asm_test

import (
	"slices"
	"testing"

	"sentomist/internal/apps"
	"sentomist/internal/asm"
)

// builtinNames lists the bundled case-study programs (apps.BuiltinSource).
var builtinNames = []string{
	"caseI", "caseI-fixed", "caseI-sink",
	"caseII", "caseII-fixed", "caseII-source",
	"caseIII", "caseIII-fixed",
}

// FuzzAssemble throws mutated assembler source at the assembler, seeded
// with the built-in firmware. Source text is untrusted input: assembly
// must return an error or a program that validates, whose disassembly
// assembles back to the same code — never panic.
func FuzzAssemble(f *testing.F) {
	for _, name := range builtinNames {
		src, err := apps.BuiltinSource(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r, err := asm.String(src)
		if err != nil {
			return
		}
		if err := r.Program.Validate(); err != nil {
			t.Fatalf("assembled program does not validate: %v", err)
		}
		re, err := asm.String(r.Program.Disassemble())
		if err != nil {
			t.Fatalf("disassembly does not assemble: %v", err)
		}
		if !slices.Equal(re.Program.Code, r.Program.Code) {
			t.Fatal("disassembly assembles to different code")
		}
	})
}
