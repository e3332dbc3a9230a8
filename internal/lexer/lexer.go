// Package lexer tokenizes the Fortran 77 / Fortran D subset. Input is
// free-form (column rules relaxed): one statement per line, '!' or 'c '
// comments, case-insensitive keywords, and identifiers that may contain
// '$' (the compiler's own generated names use my$p, ub$1, F1$row, ...).
package lexer

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Kind classifies a token.
type Kind int

const (
	EOF Kind = iota
	NEWLINE
	IDENT
	INT
	REAL
	STRING
	// punctuation
	LPAREN
	RPAREN
	COMMA
	COLON
	EQUALS
	PLUS
	MINUS
	STAR
	SLASH
	POW // **
	// relational / logical (from .EQ. style words)
	RELOP // value holds the operator text: EQ NE LT LE GT GE AND OR NOT
)

// Token is one lexical unit.
type Token struct {
	Kind  Kind
	Text  string
	Line  int
	Value float64 // for REAL
	Int   int     // for INT
}

// scanner scans source text into tokens.
type scanner struct {
	src  string
	line int
	toks []Token
}

// Tokenize scans the entire input, returning the token stream terminated
// by EOF. Blank and comment lines produce no tokens; statement ends are
// marked with NEWLINE.
func Tokenize(src string) ([]Token, error) { return TokenizeAt(nil, src, 1) }

// TokenizeAt is Tokenize for text that starts at line first of a
// program, into buf's storage if it has room for len(src)/2+8 tokens:
// Fortran runs two to four bytes a token, and append covers the rest.
func TokenizeAt(buf []Token, src string, first int) ([]Token, error) {
	if want := len(src)/2 + 8; cap(buf) < want {
		buf = make([]Token, 0, want)
	}
	lx := scanner{src: src, line: first - 1, toks: buf[:0]}
	return lx.run()
}

// statement returns the statement a source line holds, without its
// comment and surrounding blanks ("" for a blank or comment line): the
// one definition of a statement line, which run scans and IsEnd reads.
func statement(raw string) string {
	// comment lines: '!' anywhere; '*', or 'c' / 'C' followed by a
	// blank or nothing, only in column 1 (an indented "C = 0" assigns)
	stmt := strings.TrimSpace(raw)
	if stmt == "" || stmt[0] == '!' || raw[0] == stmt[0] &&
		(stmt[0] == '*' || (stmt[0] == 'c' || stmt[0] == 'C') && (len(stmt) == 1 || stmt[1] == ' ')) {
		return ""
	}
	// strip trailing comment
	if idx := strings.IndexByte(stmt, '!'); idx >= 0 {
		stmt = strings.TrimSpace(stmt[:idx])
	}
	return stmt
}

// IsEnd reports whether a source line is a lone END statement, the line
// that ends a program unit (Tokenize yields it as one END identifier).
func IsEnd(raw string) bool { return strings.EqualFold(statement(raw), "END") }

// run makes one pass over src, line by line without splitting it.
func (lx *scanner) run() ([]Token, error) {
	for rest, more := lx.src, true; more; {
		lx.line++
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		stmt := statement(raw)
		if stmt == "" {
			continue
		}
		if err := lx.scanLine(stmt); err != nil {
			return nil, err
		}
		lx.emit(Token{Kind: NEWLINE, Line: lx.line})
	}
	lx.emit(Token{Kind: EOF, Line: lx.line})
	return lx.toks, nil
}

func (lx *scanner) emit(t Token) { lx.toks = append(lx.toks, t) }

// punct holds the kind of each one-character token ('*' may start "**").
var punct = [256]Kind{'(': LPAREN, ')': RPAREN, ',': COMMA, ':': COLON, '=': EQUALS, '+': PLUS, '-': MINUS, '/': SLASH}

func (lx *scanner) scanLine(s string) error {
	i := 0
	n := len(s)
	for i < n {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case punct[c] != EOF:
			lx.emit(Token{Kind: punct[c], Text: s[i : i+1], Line: lx.line})
			i++
		case c == '*':
			if i+1 < n && s[i+1] == '*' {
				lx.emit(Token{Kind: POW, Text: "**", Line: lx.line})
				i += 2
			} else {
				lx.emit(Token{Kind: STAR, Text: "*", Line: lx.line})
				i++
			}
		case c == '.':
			// .EQ. .NE. .LT. .LE. .GT. .GE. .AND. .OR. .NOT. .TRUE. .FALSE.
			// or a real literal like .5
			if i+1 < n && isDigit(s[i+1]) {
				j := i + 1
				for j < n && isDigit(s[j]) {
					j++
				}
				txt := s[i:j]
				lx.emit(Token{Kind: REAL, Text: txt, Value: realValue(txt), Line: lx.line})
				i = j
				break
			}
			j := strings.IndexByte(s[i+1:], '.')
			if j < 0 {
				return fmt.Errorf("line %d: unterminated dotted operator", lx.line)
			}
			word := strings.ToUpper(s[i+1 : i+1+j])
			switch word {
			case "EQ", "NE", "LT", "LE", "GT", "GE", "AND", "OR", "NOT":
				lx.emit(Token{Kind: RELOP, Text: word, Line: lx.line})
			case "TRUE":
				lx.emit(Token{Kind: INT, Text: "1", Int: 1, Line: lx.line})
			case "FALSE":
				lx.emit(Token{Kind: INT, Text: "0", Int: 0, Line: lx.line})
			default:
				return fmt.Errorf("line %d: unknown operator .%s.", lx.line, word)
			}
			i += j + 2
		case isDigit(c):
			j := i
			for j < n && isDigit(s[j]) {
				j++
			}
			isReal := false
			if j < n && s[j] == '.' {
				// not a dotted operator: digit '.' requires digit or non-letter after
				if j+1 >= n || !unicode.IsLetter(rune(s[j+1])) {
					isReal = true
					j++
					for j < n && isDigit(s[j]) {
						j++
					}
				}
			}
			if j < n && (s[j] == 'e' || s[j] == 'E' || s[j] == 'd' || s[j] == 'D') &&
				j+1 < n && (isDigit(s[j+1]) || s[j+1] == '+' || s[j+1] == '-') {
				isReal = true
				j++
				if s[j] == '+' || s[j] == '-' {
					j++
				}
				for j < n && isDigit(s[j]) {
					j++
				}
			}
			txt := s[i:j]
			if isReal {
				lx.emit(Token{Kind: REAL, Text: txt, Value: realValue(txt), Line: lx.line})
			} else {
				// a literal too large for an int reads as 0
				v, err := strconv.Atoi(txt)
				if err != nil {
					v = 0
				}
				lx.emit(Token{Kind: INT, Text: txt, Int: v, Line: lx.line})
			}
			i = j
		case c == '\'':
			j := strings.IndexByte(s[i+1:], '\'')
			if j < 0 {
				return fmt.Errorf("line %d: unterminated string", lx.line)
			}
			lx.emit(Token{Kind: STRING, Text: s[i+1 : i+1+j], Line: lx.line})
			i += j + 2
		case unicode.IsLetter(rune(c)) || c == '_' || c == '$':
			j := i
			for j < n && (unicode.IsLetter(rune(s[j])) || isDigit(s[j]) || s[j] == '_' || s[j] == '$') {
				j++
			}
			lx.emit(Token{Kind: IDENT, Text: s[i:j], Line: lx.line})
			i = j
		default:
			return fmt.Errorf("line %d: unexpected character %q", lx.line, c)
		}
	}
	return nil
}

// realValue converts a scanned real literal; Fortran's d exponent
// reads as e, and a literal out of float64's range (or with an empty
// exponent, "1e+") reads as 0.
func realValue(txt string) float64 {
	if strings.ContainsAny(txt, "dD") {
		txt = strings.Map(expToE, txt)
	}
	v, err := strconv.ParseFloat(txt, 64)
	if err != nil {
		return 0
	}
	return v
}

func expToE(r rune) rune {
	if r == 'd' || r == 'D' {
		return 'e'
	}
	return r
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
