// Package wire is a lint fixture: the same miniature protocol as wirebad
// but with every opcode wrapped by the client, which wirecheck must accept.
package wire

// Op is the fixture opcode type.
type Op uint8

// Fixture opcodes, all wrapped.
const (
	OpInvalid Op = 0
	OpPing    Op = 1
	OpGet     Op = 2
)
