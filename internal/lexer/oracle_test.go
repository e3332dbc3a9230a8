package lexer

import (
	"fmt"
	"strings"
	"unicode"
)

// oldLexer is the line-splitting scanner, kept as the oracle for
// TestTokenizeMatchesLineSplitter and FuzzTokenize.
type oldLexer struct {
	src  string
	pos  int
	line int
	toks []Token
}

// OldTokenize is Tokenize as it was before the one-pass scanner: split
// into lines, lower-case each to spot comments, parse numbers with
// fmt.Sscanf, grow the token slice from nothing.
func OldTokenize(src string) ([]Token, error) {
	lx := &oldLexer{src: src, line: 1}
	return lx.run()
}

func (lx *oldLexer) run() ([]Token, error) {
	lines := strings.Split(lx.src, "\n")
	for i, raw := range lines {
		lx.line = i + 1
		line := strings.TrimRight(raw, " \t\r")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		lower := strings.ToLower(trimmed)
		if strings.HasPrefix(trimmed, "!") || line[0] == trimmed[0] &&
			(strings.HasPrefix(trimmed, "*") || lower == "c" || strings.HasPrefix(lower, "c ")) {
			continue
		}
		// strip trailing comment
		if idx := strings.IndexByte(trimmed, '!'); idx >= 0 {
			trimmed = strings.TrimSpace(trimmed[:idx])
			if trimmed == "" {
				continue
			}
		}
		// optional statement label like "S1" used in the paper's figures:
		// a token "s<digits>" followed by whitespace then more text is
		// treated as a label and dropped.
		if err := lx.scanLine(trimmed); err != nil {
			return nil, err
		}
		lx.emit(Token{Kind: NEWLINE, Line: lx.line})
	}
	lx.emit(Token{Kind: EOF, Line: lx.line})
	return lx.toks, nil
}

func (lx *oldLexer) emit(t Token) { lx.toks = append(lx.toks, t) }

func (lx *oldLexer) scanLine(s string) error {
	i := 0
	n := len(s)
	for i < n {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '(':
			lx.emit(Token{Kind: LPAREN, Text: "(", Line: lx.line})
			i++
		case c == ')':
			lx.emit(Token{Kind: RPAREN, Text: ")", Line: lx.line})
			i++
		case c == ',':
			lx.emit(Token{Kind: COMMA, Text: ",", Line: lx.line})
			i++
		case c == ':':
			lx.emit(Token{Kind: COLON, Text: ":", Line: lx.line})
			i++
		case c == '=':
			lx.emit(Token{Kind: EQUALS, Text: "=", Line: lx.line})
			i++
		case c == '+':
			lx.emit(Token{Kind: PLUS, Text: "+", Line: lx.line})
			i++
		case c == '-':
			lx.emit(Token{Kind: MINUS, Text: "-", Line: lx.line})
			i++
		case c == '*':
			if i+1 < n && s[i+1] == '*' {
				lx.emit(Token{Kind: POW, Text: "**", Line: lx.line})
				i += 2
			} else {
				lx.emit(Token{Kind: STAR, Text: "*", Line: lx.line})
				i++
			}
		case c == '/':
			lx.emit(Token{Kind: SLASH, Text: "/", Line: lx.line})
			i++
		case c == '.':
			// .EQ. .NE. .LT. .LE. .GT. .GE. .AND. .OR. .NOT. .TRUE. .FALSE.
			// or a real literal like .5
			if i+1 < n && isDigit(s[i+1]) {
				j := i + 1
				for j < n && isDigit(s[j]) {
					j++
				}
				txt := s[i:j]
				var v float64
				fmt.Sscanf(txt, "%g", &v)
				lx.emit(Token{Kind: REAL, Text: txt, Value: v, Line: lx.line})
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
				var v float64
				fmt.Sscanf(strings.Map(oldExpToE, txt), "%g", &v)
				lx.emit(Token{Kind: REAL, Text: txt, Value: v, Line: lx.line})
			} else {
				var v int
				fmt.Sscanf(txt, "%d", &v)
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

func oldExpToE(r rune) rune {
	if r == 'd' || r == 'D' {
		return 'e'
	}
	return r
}
