package unused

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 || !Oracle() {
		t.Fatal("fixture helpers changed")
	}
}
