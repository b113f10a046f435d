package repro.perfbench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.cfg.CnfGrammar
import repro.core.{CFPQResult, Materialize, MatrixInit}
import repro.graph.LabeledGraph
import repro.linalg.{BitMatrix, BlockBoolMatrix, BoolCSR}

/** A replayed closure: the relations it ended at, its iteration count, the
  * layer counters it recorded, and one trace line per iteration.
  */
final case class Replayed(relations: Map[String, Set[(Int, Int)]], iterations: Int,
                          counters: Map[String, Double], perIteration: Seq[String]) {

  /** Why this replay does not describe the engine's solve, if it does not:
    * it must end at the engine's relations and iteration count.
    */
  def mismatch(engine: CFPQResult): Option[String] = {
    def nonEmpty(m: Map[String, Set[(Int, Int)]]) = m.filter(_._2.nonEmpty)
    if (iterations != engine.iterations)
      Some(s"replay ran $iterations iterations, the engine ${engine.iterations}")
    else if (nonEmpty(relations) != nonEmpty(engine.relations))
      Some("replay ended at other relations than the engine")
    else None
  }
}

/** Replays of the engines' closure loops, driven from outside the engines
  * through the kernels' public APIs, with a timer or counter around every
  * kernel call. Each replay performs the same calls in the same order as the
  * engine it mirrors (SparseCFPQ, DenseCFPQ, SparkBlockCFPQ).
  */
object Replay {

  private final class Clock {
    val sums: mutable.Map[String, Double] = mutable.LinkedHashMap.empty
    def add(k: String, v: Double): Unit = sums(k) = sums.getOrElse(k, 0.0) + v
    def time[A](k: String)(body: => A): A = {
      val t0 = System.nanoTime()
      val r = body
      add(k, (System.nanoTime() - t0) / 1e9)
      r
    }
  }

  /** Scalar multiply-adds of `a × b`: Σ over set cells (i, k) of `a` of the
    * number of set cells in row k of `b`.
    */
  def flops(a: BoolCSR, b: BoolCSR): Long = {
    var s = 0L; var p = 0
    while (p < a.nnz) { val k = a.colIdx(p); s += b.rowPtr(k + 1) - b.rowPtr(k); p += 1 }
    s
  }

  /** SparseCFPQ's closure over [[BoolCSR]]. */
  def csr(graph: LabeledGraph, grammar: CnfGrammar): Replayed = {
    val c = new Clock
    val lines = Vector.newBuilder[String]
    val n = math.max(graph.numNodes, 1)
    val init = c.time("core.init_s")(MatrixInit.cells(graph, grammar))
    var mats: Map[String, BoolCSR] = grammar.nonterminals.iterator.map { nt =>
      nt -> BoolCSR.fromPairs(n, n, init.getOrElse(nt, Seq.empty))
    }.toMap
    var iterations = 0
    var changed = true
    while (changed) {
      iterations += 1
      val before = c.sums.toMap
      val products = grammar.binary.groupBy(_._1).map { case (a, rules) =>
        a -> rules.map { case (_, b, cc) =>
          c.add("linalg.csr.flops", flops(mats(b), mats(cc)).toDouble)
          c.add("linalg.csr.multiply_calls", 1)
          val p = c.time("linalg.csr.multiply_s")(mats(b).multiply(mats(cc)))
          c.add("linalg.csr.product_nnz", p.nnz)
          p
        }.reduce((x, y) => c.time("linalg.csr.union_s")(x union y))
      }
      changed = false
      val delta = mutable.LinkedHashMap.empty[String, Int]
      mats = mats.map { case (nt, m) =>
        products.get(nt) match {
          case Some(p) =>
            val u = c.time("linalg.csr.union_s")(m.union(p))
            if (u.nnz != m.nnz) changed = true
            delta(nt) = u.nnz - m.nnz
            c.add("linalg.csr.new_nnz", u.nnz - m.nnz)
            nt -> u
          case None => nt -> m
        }
      }
      def d(k: String) = c.sums.getOrElse(k, 0.0) - before.getOrElse(k, 0.0)
      lines += f"csr iter=$iterations multiply_ms=${d("linalg.csr.multiply_s") * 1e3}%.2f " +
        f"union_ms=${d("linalg.csr.union_s") * 1e3}%.2f flops=${d("linalg.csr.flops")}%.0f " +
        f"product_nnz=${d("linalg.csr.product_nnz")}%.0f " +
        s"nnz=${mats.toSeq.sortBy(_._1).map { case (k, m) => s"$k:${m.nnz}" }.mkString(",")} " +
        s"delta=${delta.toSeq.sortBy(_._1).map { case (k, v) => s"$k:$v" }.mkString(",")}"
    }
    val rels = c.time("core.result_set_s")(mats.map { case (nt, m) => nt -> m.toPairs.toSet })
    c.add("core.iterations", iterations)
    c.add("core.result_pairs", rels.valuesIterator.map(_.size.toDouble).sum)
    Replayed(rels, iterations, c.sums.toMap, lines.result())
  }

  /** DenseCFPQ's closure over [[BitMatrix]]. */
  def bit(graph: LabeledGraph, grammar: CnfGrammar): Replayed = {
    val c = new Clock
    val lines = Vector.newBuilder[String]
    val n = math.max(graph.numNodes, 1)
    val mats: Map[String, BitMatrix] = grammar.nonterminals.iterator.map(_ -> new BitMatrix(n)).toMap
    MatrixInit.cells(graph, grammar).foreach { case (nt, pairs) =>
      val m = mats(nt)
      pairs.foreach { case (i, j) => m.set(i, j) }
    }
    var iterations = 0
    var changed = true
    while (changed) {
      iterations += 1
      val before = c.sums.toMap
      val products = grammar.binary.groupBy(_._1).map { case (a, rules) =>
        val acc = new BitMatrix(n)
        rules.foreach { case (_, b, cc) =>
          val p = c.time("linalg.bit.multiply_s")(mats(b).multiply(mats(cc)))
          c.time("linalg.bit.or_s")(acc.orInPlace(p))
        }
        a -> acc
      }
      changed = products.foldLeft(false) { case (ch, (a, p)) =>
        c.time("linalg.bit.or_s")(mats(a).orInPlace(p)) || ch
      }
      def d(k: String) = c.sums.getOrElse(k, 0.0) - before.getOrElse(k, 0.0)
      lines += f"bit iter=$iterations multiply_ms=${d("linalg.bit.multiply_s") * 1e3}%.2f " +
        f"or_ms=${d("linalg.bit.or_s") * 1e3}%.2f"
    }
    val rels = mats.map { case (nt, m) => nt -> m.toPairs.toSet }
    Replayed(rels, iterations, c.sums.toMap, lines.result())
  }

  /** SparkBlockCFPQ's loop over [[BlockBoolMatrix]] and [[Materialize]]. */
  def block(spark: SparkSession, graph: LabeledGraph, grammar: CnfGrammar, blockSize: Int): Replayed = {
    import spark.implicits._
    val c = new Clock
    val lines = Vector.newBuilder[String]
    val init = MatrixInit.cells(graph, grammar)
    var cur = c.time("linalg.block.step_s")(Materialize.dataset(
      BlockBoolMatrix.fromPairs(spark, math.max(graph.numNodes, 1), blockSize, init)))
    var size = c.time("linalg.block.nnz_s")(BlockBoolMatrix.nnz(cur.data))
    var iterations = 0
    var changed = true
    while (changed) {
      iterations += 1
      val before = c.sums.toMap
      val next = c.time("linalg.block.step_s") {
        val prod = BlockBoolMatrix.multiplyPartials(spark, cur.data, grammar.binary, blockSize)
        Materialize.dataset(BlockBoolMatrix.coalesceBlocks(cur.data.union(prod)))
      }
      val size2 = c.time("linalg.block.nnz_s")(BlockBoolMatrix.nnz(next.data))
      def d(k: String) = c.sums.getOrElse(k, 0.0) - before.getOrElse(k, 0.0)
      lines += f"block iter=$iterations step_ms=${d("linalg.block.step_s") * 1e3}%.1f " +
        f"nnz_ms=${d("linalg.block.nnz_s") * 1e3}%.1f nnz=$size2 delta=${size2 - size}"
      if (size2 == size) { next.release(); changed = false }
      else { cur.release(); cur = next; size = size2 }
    }
    val rels = c.time("linalg.block.collect_s")(BlockBoolMatrix.collectPairs(cur.data, blockSize))
    cur.release()
    Replayed(rels, iterations, c.sums.toMap, lines.result())
  }
}
