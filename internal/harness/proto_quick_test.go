package harness

import (
	"io"
	"testing"

	"repro/internal/core"
)

func TestProtocolsQuick(t *testing.T) {
	r := NewRunner(4, core.SmallScale)
	if err := Protocols(io.Discard, r); err != nil {
		t.Fatal(err)
	}
}
