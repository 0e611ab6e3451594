// Package barrierdiscipline enforces the PR 3 durability contract in coord,
// store, and nrlog: once a run record, checkpoint, or evidence entry has
// been *staged* (an AppendDeferred/Save*Deferred/logEvidenceStaged-style
// call whose bytes are not yet fsynced), nothing may externalize the
// outcome until a group-commit barrier (barrier()/Barrier()) has made the
// staged records durable. A send that races ahead of the barrier hands
// another organisation a signed message whose supporting evidence can still
// be lost to a crash — exactly the failure the durability plane exists to
// prevent. Installing the state into the application (the
// notifyInstalled/notifyRolledBack upcalls) and publishing the agreed tuple
// (assigning the engine's published field) externalize it locally, and are
// held to the same rule.
//
// The commit-application contract adds one ordering: stage → barrier →
// install → publish. A publication that precedes an install upcall in the
// same function is reported — observers would see an agreed tuple the
// application does not hold yet.
//
// The checks are per function, in source order. Cross-function sequences
// (stage in a helper, send in the caller) are the caller's responsibility
// and are covered where the staging helper and the send appear together; a
// deliberate exception carries a //lint:ignore barrierdiscipline <reason>
// waiver.
package barrierdiscipline

import (
	"go/ast"

	"b2b/internal/analysis"
)

// Analyzer is the barrierdiscipline invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "barrierdiscipline",
	Doc: "send, install or publication while staged durability records await a " +
		"group-commit barrier, or publication before install " +
		"(stage -> barrier -> install -> publish, in that order)",
	Run: run,
}

// Call classes, matched by bare callee name. Staging is any deferral of a
// durability write; barrier is the group-commit fsync; send is anything
// that externalizes bytes to another party; install hands the application
// a state.
var (
	stageNames = map[string]bool{
		"logEvidenceStaged": true, "saveRun": true, "deleteRun": true,
		"commitCheckpointLocked": true, "SaveCheckpointDeferred": true,
		"SaveRunDeferred": true, "DeleteRunDeferred": true,
		"AppendDeferred": true, "stage": true, "stageRun": true, "stageDelete": true,
	}
	barrierNames = map[string]bool{"barrier": true, "Barrier": true}
	sendNames    = map[string]bool{
		"send": true, "Send": true, "SendBatch": true, "SendFrame": true,
		"broadcast": true, "SendTo": true,
	}
	installNames = map[string]bool{"notifyInstalled": true, "notifyRolledBack": true}
)

// publishedField is the engine field observers read the agreed tuple from:
// assigning it publishes.
const publishedField = "published"

func run(pass *analysis.Pass) error {
	if !analysis.PkgIn(pass.Pkg.Path(), "coord", "store", "nrlog", "core") {
		return nil
	}
	analysis.InspectFuncs(pass.Files, func(fd *ast.FuncDecl) {
		type staged struct {
			name string
			line int
		}
		var pending *staged
		var published ast.Node // a publication no install has followed yet
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var what string // the externalizing action at n, if any
			switch n := n.(type) {
			case *ast.AssignStmt:
				if !assignsField(n, publishedField) {
					return true
				}
				what = "publication of the agreed tuple"
				published = n
			case *ast.CallExpr:
				name := analysis.CalleeName(n)
				switch {
				case stageNames[name]:
					pending = &staged{name: name, line: pass.Fset.Position(n.Pos()).Line}
				case barrierNames[name]:
					pending = nil
				case sendNames[name]:
					what = "wire send " + name
				case installNames[name]:
					what = "install upcall " + name
					if published != nil {
						pass.Reportf(published.Pos(),
							"publication of the agreed tuple precedes install upcall %s (line %d): install, then publish",
							name, pass.Fset.Position(n.Pos()).Line)
						published = nil
					}
				}
			}
			if what != "" && pending != nil {
				pass.Reportf(n.Pos(),
					"%s while records staged by %s (line %d) await a durability barrier: call barrier() before externalizing",
					what, pending.name, pending.line)
			}
			return true
		})
	})
	return nil
}

// assignsField reports whether an assignment writes a field named name.
func assignsField(as *ast.AssignStmt, name string) bool {
	for _, lhs := range as.Lhs {
		if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
			return true
		}
	}
	return false
}
