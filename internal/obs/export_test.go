package obs

// Events decodes a trace's records in emission order.
func Events(t *Trace) []event {
	events := make([]event, 0, t.Len())
	for _, c := range t.chunks {
		for i := 0; i < len(c); i += int(c[i]) {
			events = append(events, decode(c, i))
		}
	}
	return events
}
