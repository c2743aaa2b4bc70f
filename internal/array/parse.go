package array

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSchema parses a SciDB-style array declaration of the form
//
//	Name<attr:type, attr:type, ...>[dim=lo:hi,interval, dim=lo:*,interval]
//
// It also accepts the comma form used in the paper's workload listings
// ("time=0,*,1440") where the range is written lo,hi,interval.
func ParseSchema(decl string) (*Schema, error) {
	decl = strings.TrimSpace(decl)
	lt := strings.IndexByte(decl, '<')
	gt := strings.IndexByte(decl, '>')
	lb := strings.IndexByte(decl, '[')
	rb := strings.LastIndexByte(decl, ']')
	if lt < 0 || gt < 0 || lb < 0 || rb < 0 || !(lt < gt && gt < lb && lb < rb) {
		return nil, fmt.Errorf("array: malformed schema declaration %q", decl)
	}
	name := strings.TrimSpace(decl[:lt])
	attrs, err := parseAttrs(decl[lt+1 : gt])
	if err != nil {
		return nil, fmt.Errorf("array: schema %q: %v", name, err)
	}
	dims, err := parseDims(decl[lb+1 : rb])
	if err != nil {
		return nil, fmt.Errorf("array: schema %q: %v", name, err)
	}
	return NewSchema(name, attrs, dims)
}

func parseAttrs(body string) ([]Attribute, error) {
	var attrs []Attribute
	for _, part := range strings.Split(body, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, ":", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("malformed attribute %q (want name:type)", part)
		}
		t, err := ParseDataType(kv[1])
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, Attribute{Name: strings.TrimSpace(kv[0]), Type: t})
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("no attributes declared")
	}
	return attrs, nil
}

func parseDims(body string) ([]Dimension, error) {
	var dims []Dimension
	for _, part := range splitDims(body) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed dimension %q (want name=lo:hi,interval)", part)
		}
		name := strings.TrimSpace(part[:eq])
		spec := strings.TrimSpace(part[eq+1:])
		d, err := parseDimSpec(name, spec)
		if err != nil {
			return nil, err
		}
		dims = append(dims, d)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("no dimensions declared")
	}
	return dims, nil
}

// splitDims splits the dimension list on commas that separate dimensions
// (i.e. commas followed eventually by an '='), since commas also appear
// inside each dimension spec.
func splitDims(body string) []string {
	var parts []string
	start := 0
	for i := 0; i < len(body); i++ {
		if body[i] != ',' {
			continue
		}
		rest := body[i+1:]
		if j := strings.IndexByte(rest, '='); j >= 0 {
			// Only a dimension boundary if the text before '=' is a
			// plain identifier (no digits-only tokens or '*').
			tok := strings.TrimSpace(rest[:j])
			if isIdent(tok) {
				parts = append(parts, body[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, body[start:])
	return parts
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func parseDimSpec(name, spec string) (Dimension, error) {
	var lo, hi, interval string
	if colon := strings.IndexByte(spec, ':'); colon >= 0 {
		// lo:hi,interval
		lo = spec[:colon]
		rest := spec[colon+1:]
		comma := strings.IndexByte(rest, ',')
		if comma < 0 {
			return Dimension{}, fmt.Errorf("dimension %s missing chunk interval in %q", name, spec)
		}
		hi = rest[:comma]
		interval = rest[comma+1:]
	} else {
		// lo,hi,interval (the paper's comma form)
		fields := strings.Split(spec, ",")
		if len(fields) != 3 {
			return Dimension{}, fmt.Errorf("dimension %s: want lo,hi,interval, got %q", name, spec)
		}
		lo, hi, interval = fields[0], fields[1], fields[2]
	}
	start, err := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
	if err != nil {
		return Dimension{}, fmt.Errorf("dimension %s: bad lower bound %q", name, lo)
	}
	var end int64
	if strings.TrimSpace(hi) == "*" {
		end = Unbounded
	} else {
		end, err = strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
		if err != nil {
			return Dimension{}, fmt.Errorf("dimension %s: bad upper bound %q", name, hi)
		}
	}
	iv, err := strconv.ParseInt(strings.TrimSpace(interval), 10, 64)
	if err != nil {
		return Dimension{}, fmt.Errorf("dimension %s: bad chunk interval %q", name, interval)
	}
	return Dimension{Name: name, Start: start, End: end, ChunkInterval: iv}, nil
}
