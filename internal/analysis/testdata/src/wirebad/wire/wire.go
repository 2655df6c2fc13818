// Package wire is a lint fixture: a miniature protocol package whose OpGet
// constant has no client wrapper, which wirecheck must flag.
package wire

// Op is the fixture opcode type.
type Op uint8

// Fixture opcodes. OpGet is declared but never wrapped by the client.
const (
	OpInvalid Op = 0
	OpPing    Op = 1
	OpGet     Op = 2 // want "OpGet is never referenced by"
)
