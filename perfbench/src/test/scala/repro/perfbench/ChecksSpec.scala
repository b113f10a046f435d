package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.TableRunner
import repro.core.{DenseCFPQ, SparseCFPQ}
import repro.data.Datasets

/** The benchmark's own checks: the DuckDB reference agrees with the
  * engines, a relation one pair off is caught by every check that should
  * catch it, the seed's renaming keeps the workload's shape, and the
  * closure replays end where the engines end.
  */
class ChecksSpec extends AnyFunSuite {

  private val q1 = TableRunner.q1
  private val funding = Datasets.funding.graph
  private lazy val fundingRef = Reference.relation(funding, Reference.q1Sql)
  private lazy val g1 = Workload.relabel(Datasets.g1.graph, Workload.permutation(funding.numNodes, 7L))
  private lazy val g1Base = Workload.relabel(funding, Workload.permutation(funding.numNodes, 7L))

  test("DuckDB reference equals SparseCFPQ's R_S for Q1 and Q2 on funding") {
    assert(Rel.of(SparseCFPQ.solve(funding, q1.cnf)("S")) == fundingRef)
    assert(Rel.of(SparseCFPQ.solve(funding, TableRunner.q2.cnf)("S")) ==
      Reference.relation(funding, Reference.q2Sql))
  }

  test("one pair dropped from R_S is caught") {
    val dropped = Rel(fundingRef.cells.tail)
    assert(Checks.equalsReference(dropped, fundingRef).exists(_.contains("1 missing")))
  }

  test("one pair added to R_S is caught, by the reference and by symmetry") {
    val extra = (1 until funding.numNodes).iterator
      .map(j => Rel.pack(0, j)).find(c => java.util.Arrays.binarySearch(fundingRef.cells, c) < 0).get
    val added = Rel((fundingRef.cells :+ extra).sorted)
    assert(Checks.equalsReference(added, fundingRef).exists(_.contains("1 extra")))
    assert(Checks.symmetric(added).isDefined)
    assert(Checks.symmetric(fundingRef).isEmpty)
  }

  test("R_S on g1 is 8 shifted copies of R_S on its base; a pair across copies is caught") {
    val ref = Reference.relation(g1, Reference.q1Sql)
    val base = Reference.relation(g1Base, Reference.q1Sql)
    assert(ref.size == 132560)
    assert(Checks.repeated(ref, base, 8, funding.numNodes).isEmpty)
    val crossing = Rel((ref.cells :+ Rel.pack(0, funding.numNodes)).sorted)
    assert(Checks.repeated(crossing, base, 8, funding.numNodes).exists(_.contains("1 crossing")))
    assert(Checks.repeated(Rel(ref.cells.init), base, 8, funding.numNodes).isDefined)
  }

  test("the seed renames nodes and keeps |R_S| and the iteration count") {
    val a = SparseCFPQ.solve(g1, q1.cnf)
    assert(a.iterations == 12 && a.count("S") == 132560)
    assert(g1.edges.toSet != Datasets.g1.graph.edges.toSet)
  }

  test("closure replays end at the engines' relations and iteration counts") {
    val sparse = SparseCFPQ.solve(funding, q1.cnf)
    val csr = Replay.csr(funding, q1.cnf)
    assert(csr.mismatch(sparse).isEmpty)
    assert(csr.counters("core.iterations") == 12)
    assert(csr.counters("linalg.csr.new_nnz") > 0)
    assert(csr.counters("linalg.csr.new_nnz") <= csr.counters("linalg.csr.product_nnz"))
    assert(Replay.bit(funding, q1.cnf).mismatch(DenseCFPQ.solve(funding, q1.cnf)).isEmpty)
    assert(csr.mismatch(sparse.copy(iterations = 11)).isDefined)
  }
}
