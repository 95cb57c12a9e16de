package zone

import (
	"strings"

	"dnssecboot/internal/dnswire"
)

// ParseString is Parse over a string.
func ParseString(text, origin string) (*Zone, error) {
	return Parse(strings.NewReader(text), origin)
}

// RemoveName deletes every record at name, pending signatures included.
func (z *Zone) RemoveName(name string) {
	name = dnswire.CanonicalName(name)
	z.mu.Lock()
	defer z.mu.Unlock()
	z.storeLocked(name, nil)
}
