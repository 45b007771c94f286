package isa_test

import (
	"encoding/binary"
	"testing"

	"sentomist/internal/apps"
	"sentomist/internal/asm"
	"sentomist/internal/isa"
)

// maxFuzzWords bounds a fuzzed program image to the 16-bit code space.
const maxFuzzWords = 1 << 16

// FuzzDecode throws arbitrary program words — a firmware image, read as
// big-endian 32-bit code words — at isa.Decode, seeded with the built-in
// firmware's encoded code. Every word must decode to an instruction that
// validates and re-encodes to the same word, or fail with an error; a
// program of the decoded words must validate or fail cleanly, and must
// disassemble — never panic.
func FuzzDecode(f *testing.F) {
	for _, name := range []string{"caseI", "caseI-sink", "caseII", "caseII-source", "caseIII"} {
		src, err := apps.BuiltinSource(name)
		if err != nil {
			f.Fatal(err)
		}
		r, err := asm.String(src)
		if err != nil {
			f.Fatal(err)
		}
		image := make([]byte, 0, 4*len(r.Program.Code))
		for _, in := range r.Program.Code {
			image = binary.BigEndian.AppendUint32(image, in.Encode())
		}
		f.Add(image)
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		prog := &isa.Program{}
		for len(image) >= 4 && len(prog.Code) < maxFuzzWords {
			w := binary.BigEndian.Uint32(image)
			image = image[4:]
			in, err := isa.Decode(w)
			if err != nil {
				continue
			}
			if err := in.Validate(); err != nil {
				t.Fatalf("decoded %#08x to %v, which does not validate: %v", w, in, err)
			}
			if got := in.Encode(); got != w {
				t.Fatalf("decoded %#08x to %v, which encodes to %#08x", w, in, got)
			}
			_ = in.String()
			prog.Code = append(prog.Code, in)
		}
		if err := prog.Validate(); err != nil {
			return
		}
		_ = prog.Disassemble()
	})
}
