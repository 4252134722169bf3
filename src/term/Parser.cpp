//===- term/Parser.cpp ----------------------------------------------------===//

#include "term/Parser.h"

#include "term/Desugar.h"
#include "term/Operators.h"

using namespace awam;

Parser::Parser(std::string_view Source, SymbolTable &Syms, TermArena &Arena)
    : Lex(Source), Syms(Syms), Arena(Arena) {}

Diagnostic Parser::errorAt(const Token &T, std::string_view Message) const {
  // A NUL byte is reported as itself wherever it turns up; other lexical
  // errors read in the parser's terms, as the token they stand in for.
  if (T.Kind == TokenKind::Error && T.Text == kNulByteMessage)
    Message = T.Text;
  return makeError(std::string(Message), T.Line, T.Column);
}

Result<Parser::Parsed> Parser::fail(const Token &T,
                                    std::string_view Message) const {
  return errorAt(T, Message);
}

Result<Parser::Parsed> Parser::failUnexpected(const Token &T) const {
  return errorAt(T, "unexpected '" + std::string(T.Text) + "'");
}

Result<Parser::Parsed> Parser::failTooDeep(const Token &T) const {
  return errorAt(T, "term nesting exceeds " +
                        std::to_string(kMaxTermNesting) + " levels");
}

const Term *Parser::internVar(std::string_view Name) {
  Symbol S = Syms.intern(Name);
  if (Name == "_")
    return Arena.mkVar(S, NumVars++);
  if (S >= VarBySymbol.size())
    VarBySymbol.resize(Syms.size());
  auto &[Stamp, Var] = VarBySymbol[S];
  if (Stamp != TermStamp) {
    Stamp = TermStamp;
    Var = Arena.mkVar(S, NumVars++);
  }
  return Var;
}

Result<const Term *> Parser::readTerm() {
  ++TermStamp;
  NumVars = 0;
  if (Lex.peek().Kind == TokenKind::EndOfFile)
    return static_cast<const Term *>(nullptr);
  Result<Parsed> P = parse(1200);
  if (!P)
    return P.diag();
  Token End = Lex.next();
  if (End.Kind != TokenKind::End && End.Kind != TokenKind::EndOfFile)
    return errorAt(End, "expected '.' at end of clause");
  return P->T;
}

/// Maximum priority allowed for the left operand of an infix/postfix op.
static int leftArgMax(const OpDef &Op) {
  switch (Op.Type) {
  case OpType::YFX:
  case OpType::YF:
    return Op.Priority;
  default:
    return Op.Priority - 1;
  }
}

/// Maximum priority allowed for the right operand of an infix/prefix op.
static int rightArgMax(const OpDef &Op) {
  switch (Op.Type) {
  case OpType::XFY:
    return Op.Priority;
  case OpType::FY:
    return Op.Priority;
  default:
    return Op.Priority - 1;
  }
}

/// True if \p T can start a term (used to decide whether a prefix operator
/// is really applied or stands as an atom).
static bool startsTerm(const Token &T) {
  switch (T.Kind) {
  case TokenKind::Atom:
  case TokenKind::Var:
  case TokenKind::Int:
  case TokenKind::OpenCT:
    return true;
  case TokenKind::Punct:
    return T.Text == "(" || T.Text == "[" || T.Text == "{";
  default:
    return false;
  }
}

static bool isPunct(const Token &T, std::string_view P) {
  return T.Kind == TokenKind::Punct && T.Text == P;
}

// Stack use. The reader recurses once per level of bracket, argument-list
// or prefix-operator nesting (parse -> parsePrimary -> one of its helpers
// -> parse), which kMaxTermNesting bounds. Each construct has its own
// helper and errors are built out of line (fail*), so the frames on that
// path hold only the locals of one construct; sanitizer builds, which
// give every local its own stack slot, then still fit kMaxTermNesting
// levels in the default stack.

Result<Parser::Parsed> Parser::parse(int MaxPriority) {
  // An xfy operator's right operand is parsed in this same loop rather
  // than by recursion: the operator waits on Pending, and folds with its
  // completed right operand once the next operator does not fit inside
  // that operand. So `a, b, c, ...` and `X^Y^Z...` cost heap, not stack.
  // Other operators recurse for their right operand, but only at a lower
  // priority, which bounds that recursion by the number of priorities.
  const size_t Base = Pending.size();
  int Max = MaxPriority;
  Result<Parsed> Cur = primary(Max);
  while (Cur) {
    std::optional<InfixOp> Op = peekInfixOp();
    if (Op && Op->Def.Priority <= Max &&
        Cur->Priority <= leftArgMax(Op->Def)) {
      Lex.next();
      if (Op->Def.Type == OpType::XFY) {
        Pending.push_back({Cur->T, Op->Name, Op->Def.Priority, Max});
        Max = rightArgMax(Op->Def);
        Cur = primary(Max);
      } else {
        Cur = parseInfixRight(Cur->T, Op->Name, Op->Def);
      }
      continue;
    }
    if (Pending.size() == Base)
      return Cur;
    // The innermost pending operator's right operand is complete.
    Max = Pending.back().OuterMax;
    Cur = foldPending(Cur->T);
  }
  Pending.resize(Base);
  return Cur;
}

Result<Parser::Parsed> Parser::primary(int MaxPriority) {
  // A variable or an integer, the commonest primaries, is read here
  // without parsePrimary's frame; it nests no deeper than its parent, so
  // only the nesting limit itself sends it the long way (to its error).
  const Token &T = Lex.peek();
  if (Depth < kMaxTermNesting) {
    if (T.Kind == TokenKind::Var) {
      std::string_view Name = T.Text;
      Lex.next();
      return Parsed{internVar(Name), 0};
    }
    if (T.Kind == TokenKind::Int) {
      int64_t Value = T.IntVal;
      Lex.next();
      return Parsed{Arena.mkInt(Value), 0};
    }
  }
  return parsePrimary(MaxPriority);
}

std::optional<Parser::InfixOp> Parser::peekInfixOp() {
  const Token &T = Lex.peek();
  std::string_view Name;
  if (T.Kind == TokenKind::Atom)
    Name = T.Text;
  else if (isPunct(T, ","))
    Name = ",";
  else if (isPunct(T, "|"))
    Name = ";"; // '|' as disjunction separator
  else
    return std::nullopt;
  if (std::optional<OpDef> Def = lookupInfixOp(Name))
    return InfixOp{Name, *Def};
  return std::nullopt;
}

Result<Parser::Parsed> Parser::foldPending(const Term *Right) {
  PendingOp P = Pending.back();
  Pending.pop_back();
  return Parsed{Arena.mkStruct(Syms.intern(P.Name), {P.Left, Right}),
                P.Priority};
}

Result<Parser::Parsed> Parser::parseInfixRight(const Term *Left,
                                               std::string_view Name,
                                               const OpDef &Op) {
  Result<Parsed> Right = parse(rightArgMax(Op));
  if (!Right)
    return Right;
  return Parsed{Arena.mkStruct(Syms.intern(Name), {Left, Right->T}),
                Op.Priority};
}

Result<Parser::Parsed> Parser::parsePrimary(int MaxPriority) {
  Token T = Lex.next();
  // This depth is the reader's recursion depth (see above).
  struct DepthScope {
    int &D;
    ~DepthScope() { --D; }
  } Scope{++Depth};
  if (Depth > kMaxTermNesting)
    return failTooDeep(T);

  switch (T.Kind) {
  case TokenKind::Error:
    return fail(T, T.Text);
  case TokenKind::EndOfFile:
  case TokenKind::End:
    return fail(T, "unexpected end of clause");
  case TokenKind::Int:
    return Parsed{Arena.mkInt(T.IntVal), 0};
  case TokenKind::Var:
    return Parsed{internVar(T.Text), 0};
  case TokenKind::OpenCT: // can only follow an atom; handled below
  case TokenKind::Punct:
    if (T.Text == "(" || T.Text == "{")
      return parseBracketed(T.Text == "{");
    if (T.Text == "[")
      return parseList();
    return failUnexpected(T);
  case TokenKind::Atom:
    // Functor application: atom immediately followed by '('.
    if (Lex.peek().Kind == TokenKind::OpenCT) {
      Lex.next();
      return parseArgs(T.Text);
    }
    return parseAtom(T, MaxPriority);
  }
  return fail(T, "unexpected token");
}

Result<Parser::Parsed> Parser::parseBracketed(bool Curly) {
  // Called after '(' or '{'.
  std::string_view Close = Curly ? "}" : ")";
  if (Curly && isPunct(Lex.peek(), Close)) {
    Lex.next();
    return Parsed{Arena.mkAtom(SymbolTable::SymCurly), 0};
  }
  Result<Parsed> Inner = parse(1200);
  if (!Inner)
    return Inner;
  Token End = Lex.next();
  if (!isPunct(End, Close))
    return fail(End, Curly ? "expected '}'" : "expected ')'");
  if (Curly)
    return Parsed{Arena.mkStruct(SymbolTable::SymCurly, {Inner->T}), 0};
  return Parsed{Inner->T, 0};
}

Result<Parser::Parsed> Parser::parseArgs(std::string_view Functor) {
  // Called after '('; reads arguments up to ')' and builds the structure.
  // The functor is interned after its arguments, as symbols are numbered
  // in the order the reader completes them.
  const size_t Base = Operands.size();
  for (;;) {
    Result<Parsed> Arg = parse(999);
    if (!Arg) {
      Operands.resize(Base);
      return Arg;
    }
    Operands.push_back(Arg->T);
    Token T = Lex.next();
    if (isPunct(T, ","))
      continue;
    if (isPunct(T, ")")) {
      const Term *S = Arena.mkStruct(
          Syms.intern(Functor), std::span(Operands).subspan(Base));
      Operands.resize(Base);
      return Parsed{S, 0};
    }
    Operands.resize(Base);
    return fail(T, "expected ',' or ')' in argument list");
  }
}

Result<Parser::Parsed> Parser::parseList() {
  // Called after '['; handles '[]', elements, '|' tail and ']'.
  if (isPunct(Lex.peek(), "]")) {
    Lex.next();
    return Parsed{Arena.mkAtom(SymbolTable::SymNil), 0};
  }
  const size_t Base = Operands.size();
  auto list = [&](const Term *Tail) -> Result<Parsed> {
    return Parsed{Arena.mkList(std::span(Operands).subspan(Base), Tail), 0};
  };
  // Elements, up to the first token after one that is not ','.
  Result<Parsed> R = parse(999);
  Token T;
  while (R) {
    Operands.push_back(R->T);
    T = Lex.next();
    if (!isPunct(T, ","))
      break;
    R = parse(999);
  }
  if (R) {
    if (isPunct(T, "]")) {
      R = list(Arena.mkAtom(SymbolTable::SymNil));
    } else if (!isPunct(T, "|")) {
      R = fail(T, "expected ',', '|' or ']' in list");
    } else if (R = parse(999); R) {
      const Term *Tail = R->T;
      T = Lex.next();
      R = isPunct(T, "]") ? list(Tail)
                          : fail(T, "expected ']' after list tail");
    }
  }
  Operands.resize(Base);
  return R;
}

Result<Parser::Parsed> Parser::parseAtom(const Token &T, int MaxPriority) {
  // Negative integer literal.
  if (T.Text == "-" && Lex.peek().Kind == TokenKind::Int)
    return Parsed{Arena.mkInt(-Lex.next().IntVal), 0};
  // Prefix operator application.
  if (std::optional<OpDef> Op = lookupPrefixOp(T.Text)) {
    const Token &Next = Lex.peek();
    bool NextIsInfixAtom =
        Next.Kind == TokenKind::Atom && lookupInfixOp(Next.Text) &&
        !lookupPrefixOp(Next.Text);
    if (Op->Priority <= MaxPriority && startsTerm(Next) &&
        !NextIsInfixAtom) {
      Result<Parsed> Operand = parse(rightArgMax(*Op));
      if (!Operand)
        return Operand;
      return Parsed{Arena.mkStruct(Syms.intern(T.Text), {Operand->T}),
                    Op->Priority};
    }
  }
  // Plain atom. An operator name used as an atom carries its priority.
  int Priority = 0;
  if (std::optional<OpDef> Op = lookupInfixOp(T.Text))
    Priority = Op->Priority;
  else if (std::optional<OpDef> Op2 = lookupPrefixOp(T.Text))
    Priority = Op2->Priority;
  return Parsed{Arena.mkAtom(Syms.intern(T.Text)), Priority};
}

Result<ParsedClause> awam::makeClause(const Term *ClauseTerm, int NumVars,
                                      const SymbolTable &Syms) {
  ParsedClause C;
  C.NumVars = NumVars;
  const Term *Body = nullptr;
  if (ClauseTerm->isStruct() &&
      ClauseTerm->functor() == SymbolTable::SymNeck &&
      ClauseTerm->arity() == 2) {
    C.Head = ClauseTerm->arg(0);
    Body = ClauseTerm->arg(1);
  } else {
    C.Head = ClauseTerm;
  }
  if (!C.Head->isCallable())
    return makeError("clause head is not callable");

  // Flatten the body conjunction left-to-right. A right-nested chain
  // (a, (b, c)) is walked in place; only the right operand of a
  // conjunction whose left operand is itself a conjunction waits on the
  // stack. Both vectors are kept from call to call, so a clause costs one
  // exact allocation for its body.
  thread_local std::vector<const Term *> Stack;
  thread_local std::vector<const Term *> Goals;
  Stack.clear();
  Goals.clear();
  auto isConj = [](const Term *G) {
    return G->isStruct() && G->functor() == SymbolTable::SymComma &&
           G->arity() == 2;
  };
  // Adds one goal; false if it is not callable.
  auto addGoal = [&](const Term *G) {
    if (G->isAtom() && G->functor() == SymbolTable::SymTrue)
      return true;
    if (!G->isCallable() && !G->isVar())
      return false;
    Goals.push_back(G);
    return true;
  };
  for (const Term *G = Body; G;) {
    if (isConj(G)) {
      const Term *Left = G->arg(0);
      if (isConj(Left)) {
        Stack.push_back(G->arg(1));
        G = Left;
        continue;
      }
      if (!addGoal(Left))
        return makeError("body goal is not callable");
      G = G->arg(1);
      continue;
    }
    if (!addGoal(G))
      return makeError("body goal is not callable");
    G = nullptr;
    if (!Stack.empty()) {
      G = Stack.back();
      Stack.pop_back();
    }
  }
  C.Body.assign(Goals.begin(), Goals.end());
  (void)Syms;
  return C;
}

Result<ParsedProgram> awam::parseProgram(std::string_view Source,
                                         SymbolTable &Syms,
                                         TermArena &Arena) {
  Parser P(Source, Syms, Arena);
  ParsedProgram Prog;
  const size_t NodesBefore = Arena.numNodes();
  for (;;) {
    Result<const Term *> TermOr = P.readTerm();
    if (!TermOr)
      return TermOr.diag();
    const Term *T = *TermOr;
    if (!T) {
      // Rewrite ;/->/\+ into auxiliary predicates (see term/Desugar.h).
      Result<ParsedProgram> Done =
          desugarControl(std::move(Prog), Syms, Arena);
      if (Done)
        Done->NumTermNodes = Arena.numNodes() - NodesBefore;
      return Done;
    }
    // ":- Goal" directives are collected but not compiled.
    if (T->isStruct() && T->functor() == SymbolTable::SymNeck &&
        T->arity() == 1) {
      Prog.Directives.push_back(T->arg(0));
      continue;
    }
    Result<ParsedClause> C = makeClause(T, P.lastTermNumVars(), Syms);
    if (!C)
      return C.diag();
    Prog.Clauses.push_back(C.take());
  }
}
