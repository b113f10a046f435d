package repro.perfbench

import repro.bench.TableRunner
import repro.bench.TableRunner.Query
import repro.data.{DatasetSpec, Datasets}
import repro.graph.LabeledGraph

/** One graph of a workload: a repeated corpus graph (g1–g3), its base
  * ontology, and the DuckDB reference relations of both.
  */
final case class BenchGraph(spec: DatasetSpec, graph: LabeledGraph,
                            base: LabeledGraph, ref: Rel, baseRef: Rel) {
  def name: String = spec.name
}

/** A workload: one query over g1–g3. Engines are timed on `graphs`, the
  * Spark engines on the first graph only (one Spark solve of g2 or g3 runs
  * for tens of seconds on four cores).
  *
  * @param sparseBatch back-to-back solves per timing of the GLL, Hellings
  *                    and SparseCSR engines, whose single solves are too
  *                    short to time alone on this workload
  * @param symmetric   whether R_S must be symmetric (Q1)
  */
final case class Workload(name: String, query: Query, sql: String,
                          sparseBatch: Int, symmetric: Boolean)

object Workload {

  val q1Repeated: Workload = Workload("q1-repeated", TableRunner.q1, Reference.q1Sql,
    sparseBatch = 1, symmetric = true)
  val q2Repeated: Workload = Workload("q2-repeated", TableRunner.q2, Reference.q2Sql,
    sparseBatch = 8, symmetric = false)

  val all: Seq[Workload] = Seq(q1Repeated, q2Repeated)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** The repeated graphs with their base ontologies. */
  val specs: Seq[(DatasetSpec, DatasetSpec)] =
    Seq(Datasets.g1 -> Datasets.funding, Datasets.g2 -> Datasets.wine, Datasets.g3 -> Datasets.pizza)

  /** A permutation of `0 until n` drawn from `seed`. */
  def permutation(n: Int, seed: Long): Array[Int] =
    new scala.util.Random(seed).shuffle((0 until n).toVector).toArray

  /** `graph` with every node `c·n + u` of copy `c` renamed to `c·n + perm(u)`,
    * where `n = perm.length`. The same renaming in every copy keeps the
    * copies disjoint and identical up to the shift, so the graph has the
    * same shape, iterations and |R_S| as the corpus graph.
    */
  def relabel(graph: LabeledGraph, perm: Array[Int]): LabeledGraph = {
    val n = perm.length
    def f(v: Int): Int = (v / n) * n + perm(v % n)
    LabeledGraph(graph.numNodes, graph.edges.map { case (s, l, d) => (f(s), l, f(d)) })
  }
}
