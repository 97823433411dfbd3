package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockDiscipline enforces the shard package's locking rules, the ones
// the incremental-resize machinery depends on:
//
//  1. Every mu.Lock()/mu.RLock() — and every mu.TryLock(), which takes
//     the lock whenever it answers true — has a matching
//     Unlock()/RUnlock() on the same receiver somewhere in the same
//     function (deferred or explicit) — a shard lock never leaks out of
//     the function that took it.
//  2. The raw table factory (the Config.NewTable function value, stored
//     as Engine.create) is invoked only inside allocTable, so a factory
//     error is handled in exactly one place.
//  3. No call into the exec package while a shard lock is held: a pool
//     submission under a shard lock can deadlock against a task that
//     needs the same shard (the documented must-not-call-back-into-the-
//     engine contract, checked from the other side).
//  4. The shard's seqlock word (the atomic.Uint64 field named seq) is
//     bumped only inside the window helpers lockShard/unlockShard.
//     Wait-free readers validate that word; a bump anywhere else either
//     tears a window open without the writer lock or leaves the
//     sequence odd with no writer — both silently corrupt reads.
//  5. The shard's published view pointer (the atomic.Pointer field named
//     view) is stored only inside publish, the one epoch-publication
//     chokepoint (which itself asserts it runs inside a writer's
//     window).
//  6. The pending set's writer methods (add and apply on a pendingSet)
//     are called only while a shard lock is held, found the way rule 3
//     finds a held region. Readers share the set with one writer at a
//     time; an add or an apply outside the lock races another. And the
//     set's keys, slots and filter are assigned only inside those two
//     methods: readers load those words atomically, trusting that the
//     plain stores to them are published by the count store that ends
//     an add or an apply, and a store anywhere else is published by
//     nothing.
//
// lockShard/unlockShard calls count as Lock/Unlock for rules 1 and 3 —
// they ARE the shard writer lock, wrapped in the sequence bump — and so
// does s.acquire(), the yield-then-park helper every acquisition of s.mu
// goes through, which a bare s.mu.Unlock() answers. The three helper
// definitions themselves are exempt from rule 1 (they split an acquire
// and a release across functions by design); acquire gets nothing from
// rule 4: it never writes the sequence word.
//
// The analysis is intra-procedural and syntactic about lock identity
// (receivers are matched textually), which is exactly as strong as the
// package's own convention: shard takes locks and releases them in the
// same function, on the same expression.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "shard locking rules: paired Lock/Unlock, allocTable chokepoint, no exec calls under a shard lock, seqlock bumps and view stores only at their chokepoints, pending-set writes only under a shard lock and its words stored only by add and apply",
	Run:  runLockDiscipline,
}

// lockCall describes one mutex method call: the textual receiver and
// whether it is the read flavor.
type lockCall struct {
	recv string
	read bool
}

// asMutexCall decodes call as recv.<method>() on a sync.Mutex or
// sync.RWMutex and returns the receiver text, the method name, and ok.
func (p *Pass) asMutexCall(call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock":
	default:
		return "", "", false
	}
	t := p.typeOf(sel.X)
	if !typeIs(t, "sync", "Mutex") && !typeIs(t, "sync", "RWMutex") {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// asShardLockCall decodes call as a shard lock transition: either a raw
// mutex method (asMutexCall), one of the seqlock window helpers, or the
// acquire helper. The returned method is the call's own name — "Lock",
// "TryLock", "Unlock", "lockShard", "acquire" and so on — so reports can
// quote the idiom the code actually used. s.acquire() takes s.mu, so its
// receiver is reported as that field: the s.mu.Unlock() that releases it
// then matches textually.
func (p *Pass) asShardLockCall(call *ast.CallExpr) (string, string, bool) {
	if recv, method, ok := p.asMutexCall(call); ok {
		return recv, method, ok
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "lockShard", "unlockShard":
		return types.ExprString(sel.X), sel.Sel.Name, true
	case "acquire":
		return types.ExprString(sel.X) + ".mu", sel.Sel.Name, true
	}
	return "", "", false
}

// takesLock reports whether method, as asShardLockCall names it, leaves
// (or, for TryLock, may leave) the lock held.
func takesLock(method string) bool {
	switch method {
	case "Lock", "RLock", "TryLock", "lockShard", "acquire":
		return true
	}
	return false
}

// isWindowHelper reports whether fd defines one of the seqlock window
// helpers, which are exempt from lock pairing (they split the acquire
// and release across two functions by design) and are the only
// functions allowed to bump the sequence word.
func isWindowHelper(fd *ast.FuncDecl) bool {
	return fd.Name.Name == "lockShard" || fd.Name.Name == "unlockShard"
}

// isLockHelper reports whether fd is exempt from lock pairing: the window
// helpers, and acquire, which returns holding the lock it took.
func isLockHelper(fd *ast.FuncDecl) bool {
	return isWindowHelper(fd) || fd.Name.Name == "acquire"
}

func runLockDiscipline(pass *Pass) error {
	if PkgBase(pass.Pkg.Path()) != "shard" {
		return nil
	}
	for _, f := range pass.sourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockPairing(pass, fd)
			checkFactoryChokepoint(pass, fd)
			checkSeqChokepoint(pass, fd)
			checkPublishChokepoint(pass, fd)
			checkPendingWords(pass, fd)
			scanHeldRegions(pass, fd.Body.List, nil)
		}
	}
	return nil
}

// checkLockPairing requires a matching unlock for every lock taken in
// fd. Raw mutex calls and the seqlock window helpers pair within their
// own idiom (a lockShard answered by a bare mu.Unlock would skip the
// closing sequence bump, and the differing receiver texts keep the two
// from cross-matching).
func checkLockPairing(pass *Pass, fd *ast.FuncDecl) {
	if isLockHelper(fd) {
		return
	}
	type site struct {
		call *ast.CallExpr
		lock lockCall
		want string
	}
	var locks []site
	unlocks := map[lockCall]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method, ok := pass.asShardLockCall(call)
		if !ok {
			return true
		}
		switch method {
		case "Lock", "TryLock", "acquire":
			locks = append(locks, site{call, lockCall{recv, false}, "Unlock"})
		case "RLock":
			locks = append(locks, site{call, lockCall{recv, true}, "RUnlock"})
		case "lockShard":
			locks = append(locks, site{call, lockCall{recv, false}, "unlockShard"})
		case "Unlock", "unlockShard":
			unlocks[lockCall{recv, false}] = true
		case "RUnlock":
			unlocks[lockCall{recv, true}] = true
		}
		return true
	})
	for _, l := range locks {
		if !unlocks[l.lock] {
			pass.Reportf(l.call.Pos(), "%s() without a matching %s in this function: a shard lock must be released where it was taken (defer it)", types.ExprString(l.call.Fun), l.want)
		}
	}
}

// checkFactoryChokepoint flags raw table-factory invocations outside
// allocTable.
func checkFactoryChokepoint(pass *Pass, fd *ast.FuncDecl) {
	if fd.Name.Name == "allocTable" {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.Ident:
			name = fun.Name
		default:
			return true
		}
		if name == "create" || name == "NewTable" {
			pass.Reportf(call.Pos(), "raw table-factory call outside allocTable: every allocation must pass through the one place a factory error is handled")
		}
		return true
	})
}

// checkSeqChokepoint flags mutations of a shard's seqlock word outside
// the window helpers: readers validate that word, so an odd/even
// transition from anywhere else either opens a window without the
// writer lock or strands the sequence odd — both corrupt wait-free
// reads without any test failing deterministically.
func checkSeqChokepoint(pass *Pass, fd *ast.FuncDecl) {
	if isWindowHelper(fd) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Add", "Store", "Swap", "CompareAndSwap", "And", "Or":
		default:
			return true
		}
		field, ok := sel.X.(*ast.SelectorExpr)
		if !ok || field.Sel.Name != "seq" {
			return true
		}
		if !typeIs(pass.typeOf(sel.X), "atomic", "Uint64") {
			return true
		}
		pass.Reportf(call.Pos(), "seqlock word mutated outside lockShard/unlockShard: readers validate this sequence, so every transition must come from the window helpers")
		return true
	})
}

// checkPublishChokepoint flags stores to a shard's published view
// pointer outside publish, the one epoch-publication chokepoint (which
// asserts it runs inside a writer's seqlock window and keeps the
// generation counter and publication telemetry honest).
func checkPublishChokepoint(pass *Pass, fd *ast.FuncDecl) {
	if fd.Name.Name == "publish" {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Store", "Swap", "CompareAndSwap":
		default:
			return true
		}
		field, ok := sel.X.(*ast.SelectorExpr)
		if !ok || field.Sel.Name != "view" {
			return true
		}
		if !typeIs(pass.typeOf(sel.X), "atomic", "Pointer") {
			return true
		}
		pass.Reportf(call.Pos(), "shard view stored outside publish: every epoch publication must pass through the one chokepoint (seqlock-window assertion, generation counter, telemetry)")
		return true
	})
}

// scanHeldRegions walks a statement list tracking which shard locks are
// held (raw mutex calls and the seqlock window helpers alike), and
// flags exec-package calls made while any is, and pending-set writes
// made while none is. It walks into every nested statement list —
// blocks, if and else-if branches, loops (labeled or not), switch and
// select cases — and visits each statement once. held maps receiver text
// to the read/write flavor last taken; nested blocks see a copy, so
// branch-local locks do not leak into siblings.
func scanHeldRegions(pass *Pass, stmts []ast.Stmt, held map[string]bool) {
	held = copyHeld(held)
	for _, stmt := range stmts {
		// A label names its statement: scan the statement itself.
		for l, ok := stmt.(*ast.LabeledStmt); ok; l, ok = stmt.(*ast.LabeledStmt) {
			stmt = l.Stmt
		}
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if recv, method, ok := pass.asShardLockCall(call); ok {
					if takesLock(method) {
						held[recv] = true
					} else {
						delete(held, recv)
					}
					continue
				}
			}
		case *ast.DeferStmt:
			// A deferred unlock (either idiom) keeps the lock held to
			// function end by design; the region below stays "held".
			if _, _, ok := pass.asShardLockCall(&ast.CallExpr{Fun: s.Call.Fun}); ok {
				continue
			}
		}
		if len(held) > 0 {
			flagExecCalls(pass, stmt, held)
		} else {
			flagPendingWrites(pass, stmt)
		}
		// Recurse into nested statement lists with the current view.
		switch s := stmt.(type) {
		case *ast.BlockStmt:
			scanHeldRegions(pass, s.List, held)
		case *ast.IfStmt:
			// A TryLock condition takes the lock on one branch: the body
			// of `if mu.TryLock()`, or — when the body of `if !mu.TryLock()`
			// leaves the function — everything after the statement.
			recv, negated := pass.tryLockCond(s.Cond)
			body := held
			if recv != "" && !negated {
				body = copyHeld(held)
				body[recv] = true
			}
			scanHeldRegions(pass, s.Body.List, body)
			if s.Else != nil { // a block, or the if of an else-if
				scanHeldRegions(pass, []ast.Stmt{s.Else}, held)
			}
			if n := len(s.Body.List); recv != "" && negated && n > 0 {
				if _, leaves := s.Body.List[n-1].(*ast.ReturnStmt); leaves {
					held[recv] = true
				}
			}
		case *ast.ForStmt:
			scanHeldRegions(pass, s.Body.List, held)
		case *ast.RangeStmt:
			scanHeldRegions(pass, s.Body.List, held)
		case *ast.SwitchStmt:
			scanClauses(pass, s.Body, held)
		case *ast.TypeSwitchStmt:
			scanClauses(pass, s.Body, held)
		case *ast.SelectStmt:
			scanClauses(pass, s.Body, held)
		}
	}
}

// scanClauses scans the case bodies of a switch, type switch or select.
func scanClauses(pass *Pass, body *ast.BlockStmt, held map[string]bool) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			scanHeldRegions(pass, cc.Body, held)
		} else if cc, ok := c.(*ast.CommClause); ok {
			scanHeldRegions(pass, cc.Body, held)
		}
	}
}

// tryLockCond decodes an if condition of the form mu.TryLock() or
// !mu.TryLock() and returns the receiver text, or "".
func (p *Pass) tryLockCond(cond ast.Expr) (recv string, negated bool) {
	if not, ok := cond.(*ast.UnaryExpr); ok && not.Op == token.NOT {
		cond, negated = not.X, true
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	recv, method, ok := p.asMutexCall(call)
	if !ok || method != "TryLock" {
		return "", false
	}
	return recv, negated
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// flagExecCalls reports exec-package calls inside stmt (excluding nested
// statement lists and else-if statements, which the caller recurses into
// separately with the right held set, but including expressions like call
// arguments).
func flagExecCalls(pass *Pass, stmt ast.Stmt, held map[string]bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if nested(stmt, n) {
			return false // handled by the caller's recursion
		}
		if call, ok := n.(*ast.CallExpr); ok && pass.isExecCall(call) {
			var some string
			for recv := range held {
				some = recv
				break
			}
			pass.Reportf(call.Pos(), "call into exec while %s is locked: a pool submission under a shard lock can deadlock against tasks touching the same shard — release the lock first", some)
		}
		return true
	})
}

// nested reports whether n, met inside stmt, is a block or an else-if,
// which scanHeldRegions scans on its own: each statement is visited once.
func nested(stmt ast.Stmt, n ast.Node) bool {
	_, isIf := n.(*ast.IfStmt)
	_, isBlock := n.(*ast.BlockStmt)
	return isBlock || isIf && n != stmt
}

// flagPendingWrites reports the pending set's writer methods called
// inside stmt, which runs with no shard lock held (nested statement lists
// excepted, as in flagExecCalls).
func flagPendingWrites(pass *Pass, stmt ast.Stmt) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if nested(stmt, n) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "add" && sel.Sel.Name != "apply") {
			return true
		}
		if typeIs(pass.typeOf(sel.X), "shard", "pendingSet") {
			pass.Reportf(call.Pos(), "pending set's %s called with no shard lock held: its writer is whoever holds the shard lock, and readers trust that there is one", sel.Sel.Name)
		}
		return true
	})
}

// pendingWords are the pending set's fields that readers load atomically
// and its writer stores plainly.
var pendingWords = map[string]bool{"keys": true, "slots": true, "filter": true}

// checkPendingWords flags assignments to a pendingSet's keys, slots or
// filter — an element or the whole array — outside the set's add and
// apply methods, whose closing count store is what publishes them.
func checkPendingWords(pass *Pass, fd *ast.FuncDecl) {
	if (fd.Name.Name == "add" || fd.Name.Name == "apply") && fd.Recv != nil &&
		typeIs(pass.typeOf(fd.Recv.List[0].Type), "shard", "pendingSet") {
		return
	}
	check := func(lhs ast.Expr) {
		for {
			switch e := lhs.(type) {
			case *ast.IndexExpr:
				lhs = e.X
			case *ast.ParenExpr:
				lhs = e.X
			case *ast.SelectorExpr:
				if pendingWords[e.Sel.Name] && typeIs(pass.typeOf(e.X), "shard", "pendingSet") {
					pass.Reportf(e.Pos(), "pending set's %s stored outside add and apply: readers load it atomically after the count, and only the count store ending add or apply publishes it", e.Sel.Name)
				}
				return
			default:
				return
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(s.X)
		}
		return true
	})
}
