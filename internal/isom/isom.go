// Package isom implements the paper's "isom" object files: modules whose
// code is still intermediate code, written to disk by the compiler
// driver and collected by the linker, which hands them en masse to HLO
// for cross-module optimization before real code generation. The format
// is the canonical textual listing produced by ir printing, so isom
// files are also human-readable compiler dumps.
package isom

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/resilience"
)

// ptDecode is the fault-injection point of the isom decoder (armed only
// by tests; see internal/resilience).
var ptDecode = resilience.Register("isom/decode")

// ParseError is a structured, positional isom parse failure: which
// line, what was wrong. Read returns errors of this type so callers can
// report the bad object file instead of dying on an opaque string.
type ParseError struct {
	Line int // 1-based line of the offending text; 0 if unknown
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("isom: line %d: %s", e.Line, e.Msg)
}

// Write serializes one module.
func Write(w io.Writer, m *ir.Module) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(m.String()); err != nil {
		return err
	}
	return bw.Flush()
}

// Read parses one module written by Write. Errors are *ParseError. A
// decoder panic — a corrupt input tripping an unguarded path, or an
// injected fault at isom/decode — is contained and reported as a parse
// error at the line being decoded, never propagated to the caller.
func Read(r io.Reader) (m *ir.Module, err error) {
	p := &parser{sc: bufio.NewScanner(r)}
	p.sc.Buffer(make([]byte, 1<<20), 1<<26)
	defer func() {
		if rec := recover(); rec != nil {
			m, err = nil, &ParseError{Line: p.line, Msg: fmt.Sprintf("decoder panicked: %v", rec)}
		}
	}()
	ptDecode.Inject()
	m, perr := p.module()
	if perr != nil {
		return nil, &ParseError{Line: p.line, Msg: perr.Error()}
	}
	return m, nil
}

type parser struct {
	sc      *bufio.Scanner
	line    int
	peeked  string
	hasPeek bool
	eof     bool
}

func (p *parser) next() (string, bool) {
	if p.hasPeek {
		p.hasPeek = false
		return p.peeked, true
	}
	for p.sc.Scan() {
		p.line++
		t := strings.TrimRight(p.sc.Text(), "\r\n")
		if strings.TrimSpace(t) == "" {
			continue
		}
		return t, true
	}
	p.eof = true
	return "", false
}

func (p *parser) push(line string) {
	p.peeked = line
	p.hasPeek = true
}

func (p *parser) module() (*ir.Module, error) {
	line, ok := p.next()
	if !ok {
		return nil, fmt.Errorf("empty input")
	}
	fields := strings.Fields(line)
	if len(fields) != 2 || fields[0] != "module" {
		return nil, fmt.Errorf("expected module header, got %q", line)
	}
	m := &ir.Module{Name: fields[1], Externs: make(map[string]ir.ExternSig)}
	for {
		line, ok := p.next()
		if !ok {
			return m, nil
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "module":
			p.push(line)
			return m, nil
		case "extern":
			if len(fields) != 4 {
				return nil, fmt.Errorf("malformed extern %q", line)
			}
			np, err := intAttr(fields[2], "params")
			if err != nil {
				return nil, err
			}
			va := strings.TrimPrefix(fields[3], "varargs=") == "true"
			m.Externs[fields[1]] = ir.ExternSig{NumParams: int(np), Varargs: va}
		case "global":
			g, err := parseGlobal(fields, m.Name)
			if err != nil {
				return nil, err
			}
			m.Globals = append(m.Globals, g)
		case "func":
			f, err := p.parseFunc(fields, m.Name)
			if err != nil {
				return nil, err
			}
			m.Funcs = append(m.Funcs, f)
		default:
			return nil, fmt.Errorf("unexpected line %q", line)
		}
	}
}

func intAttr(field, name string) (int64, error) {
	val, ok := strings.CutPrefix(field, name+"=")
	if !ok {
		return 0, fmt.Errorf("expected %s=..., got %q", name, field)
	}
	return strconv.ParseInt(val, 10, 64)
}

func parseGlobal(fields []string, module string) (*ir.Global, error) {
	if len(fields) < 3 {
		return nil, fmt.Errorf("malformed global")
	}
	g := &ir.Global{Name: fields[1], Module: module}
	size, err := intAttr(fields[2], "size")
	if err != nil {
		return nil, err
	}
	g.Size = size
	for _, f := range fields[3:] {
		switch {
		case f == "static":
			g.Static = true
		case f == "promoted":
			g.Promoted = true
		case strings.HasPrefix(f, "init=["):
			body := strings.TrimSuffix(strings.TrimPrefix(f, "init=["), "]")
			if body == "" {
				continue
			}
			for _, s := range strings.Split(body, ",") {
				v, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad init value %q", s)
				}
				g.Init = append(g.Init, v)
			}
		default:
			return nil, fmt.Errorf("unknown global attribute %q", f)
		}
	}
	return g, nil
}

func (p *parser) parseFunc(fields []string, module string) (*ir.Func, error) {
	if len(fields) < 5 {
		return nil, fmt.Errorf("malformed func header")
	}
	f := &ir.Func{Name: fields[1], Module: module}
	np, err := intAttr(fields[2], "params")
	if err != nil {
		return nil, err
	}
	f.NumParams = int(np)
	regs, err := intAttr(fields[3], "regs")
	if err != nil {
		return nil, err
	}
	f.NumRegs = int32(regs)
	frame, err := intAttr(fields[4], "frame")
	if err != nil {
		return nil, err
	}
	f.FrameSize = frame
	for _, fd := range fields[5:] {
		switch {
		case strings.HasPrefix(fd, "flags="):
			for _, fl := range strings.Split(strings.TrimPrefix(fd, "flags="), "+") {
				switch fl {
				case "static":
					f.Static = true
				case "promoted":
					f.Promoted = true
				case "varargs":
					f.Varargs = true
				case "noinline":
					f.NoInline = true
				case "alwaysinline":
					f.AlwaysInline = true
				case "relaxed":
					f.Relaxed = true
				case "alloca":
					f.UsesAlloca = true
				default:
					return nil, fmt.Errorf("unknown flag %q", fl)
				}
			}
		case strings.HasPrefix(fd, "entrycount="):
			v, err := intAttr(fd, "entrycount")
			if err != nil {
				return nil, err
			}
			f.EntryCount = v
		case strings.HasPrefix(fd, "clonedfrom="):
			f.ClonedFrom = strings.TrimPrefix(fd, "clonedfrom=")
		case strings.HasPrefix(fd, "names="):
			f.ParamNames = strings.Split(strings.TrimPrefix(fd, "names="), ",")
		default:
			return nil, fmt.Errorf("unknown func attribute %q", fd)
		}
	}
	// Blocks until "end".
	for {
		line, ok := p.next()
		if !ok {
			return nil, fmt.Errorf("unterminated function %s", f.Name)
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "end" {
			return f, nil
		}
		fields := strings.Fields(trimmed)
		if fields[0] == "block" {
			if len(fields) < 2 {
				return nil, fmt.Errorf("bad block header %q", line)
			}
			b := &ir.Block{Index: len(f.Blocks)}
			idx, err := strconv.Atoi(fields[1])
			if err != nil || idx != b.Index {
				return nil, fmt.Errorf("bad block header %q", line)
			}
			for _, fd := range fields[2:] {
				switch {
				case strings.HasPrefix(fd, "count="):
					v, err := intAttr(fd, "count")
					if err != nil {
						return nil, err
					}
					b.Count = v
				case strings.HasPrefix(fd, "depth="):
					v, err := intAttr(fd, "depth")
					if err != nil {
						return nil, err
					}
					b.Depth = int(v)
				default:
					return nil, fmt.Errorf("unknown block attribute %q", fd)
				}
			}
			f.Blocks = append(f.Blocks, b)
			continue
		}
		if len(f.Blocks) == 0 {
			return nil, fmt.Errorf("instruction before first block: %q", line)
		}
		in, err := parseInstr(trimmed)
		if err != nil {
			return nil, fmt.Errorf("%w in %q", err, line)
		}
		b := f.Blocks[len(f.Blocks)-1]
		b.Instrs = append(b.Instrs, in)
	}
}
