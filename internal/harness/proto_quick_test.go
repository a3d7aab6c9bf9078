package harness

import (
	"io"
	"testing"

	"repro/internal/exp"
)

func TestProtocolsQuick(t *testing.T) {
	if err := Protocols.Print(io.Discard, exp.New(), smallBase); err != nil {
		t.Fatal(err)
	}
}
